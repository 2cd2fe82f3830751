import json
import subprocess
import sys

import pytest

import gate
from run import HERE, ROOT
from tracer import Tracer


class FakeClock:
    """A clock that moves only when the toy code says how long it worked."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_generator_time_is_charged_per_next_not_to_the_consumer(clock):
    tracer = Tracer(clock)

    def toy_gen(n):
        for i in range(n):
            clock.work(2.0)
            yield i
        clock.work(0.5)  # work after the last item, before StopIteration

    gen = tracer.wrap(toy_gen, "toy.gen")

    def toy_consumer(n):
        clock.work(1.0)
        total = 0
        for x in gen(n):
            clock.work(3.0)
            total += x
        return total

    consumer = tracer.wrap(toy_consumer, "toy.consumer")
    assert consumer(4) == 6
    report = tracer.report()
    assert report["self_s"] == {"toy.gen": 8.5, "toy.consumer": 13.0}
    assert report["calls"] == {"toy.gen": 1, "toy.consumer": 1}
    assert report["yielded"] == {"toy.gen": 4}
    assert sum(report["self_s"].values()) == clock.now


def test_counter_hooks_are_kept_out_of_every_span(clock):
    tracer = Tracer(clock)

    class Slow:
        def item(self, value):
            clock.work(10.0)

        def done(self):
            clock.work(1.0)

    def toy_gen():
        clock.work(2.0)
        yield 1
        clock.work(2.0)
        yield 2

    gen = tracer.wrap(toy_gen, "toy.gen", per_call=Slow)
    consumer = tracer.wrap(lambda: list(gen()), "toy.consumer")
    assert consumer() == [1, 2]
    report = tracer.report()
    assert report["self_s"] == {"toy.gen": 4.0, "toy.consumer": 0.0}
    assert report["trace_s"] == 21.0
    assert sum(report["self_s"].values()) + report["trace_s"] == clock.now


def test_inclusive_time_counts_only_the_outermost_recursive_call(clock):
    tracer = Tracer(clock)

    def fact(n):
        clock.work(1.0)
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tracer.wrap(fact, "toy.fact", inclusive=True, item=True)
    assert wrapped(3) == 6
    report = tracer.report()
    assert report["inclusive_s"] == {"toy.fact": 3.0}
    assert report["self_s"] == {"toy.fact": 3.0}
    assert report["calls"] == {"toy.fact": 3}
    assert report["item_s"] == [1.0, 2.0, 3.0]


def test_exceptions_close_their_spans(clock):
    tracer = Tracer(clock)

    def boom():
        clock.work(1.0)
        yield 1
        raise ValueError("boom")

    gen = tracer.wrap(boom, "toy.boom")
    with pytest.raises(ValueError):
        list(gen())
    assert tracer.report()["self_s"] == {"toy.boom": 1.0}
    assert len(tracer._stack) == 1


def test_install_wraps_every_reference_and_uninstall_restores():
    from macchroma import chromatic, cli, jack, macdonald, rings, verify

    before = {
        "macdonald.x_g": macdonald.x_g,
        "jack.x_g": jack.x_g,
        "jack.non_attacking_fillings": jack.non_attacking_fillings,
        "hhl": cli._JQT_METHODS["hhl"],
        "subsets": cli._JACK_METHODS["subsets"],
        "item": verify._SUITE_ITEM["macdonald"],
        "haglund": verify._CONJECTURES["haglund"],
        "mul": rings.LaurentQT.__mul__,
        "one": rings.LaurentQT.__dict__["one"],
        "json": cli.json,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert macdonald.x_g is jack.x_g is chromatic.x_g
        assert macdonald.x_g is not before["macdonald.x_g"]
        assert macdonald.x_g.__wrapped__ is before["macdonald.x_g"]
        assert jack.non_attacking_fillings is macdonald.non_attacking_fillings
        assert cli._JQT_METHODS["hhl"] is macdonald.j_hhl is not before["hhl"]
        assert cli._JACK_METHODS["subsets"] is jack.jack_power
        assert verify._SUITE_ITEM["macdonald"] is verify.check_macdonald_mu
        assert verify._CONJECTURES["haglund"].__wrapped__ is before["haglund"]
        assert rings.LaurentQT.__mul__ is not before["mul"]
        assert cli.json is not before["json"]
        assert rings.LaurentQT.one() == rings.LaurentQT.parse("1")
    finally:
        tracer.uninstall()
    assert macdonald.x_g is before["macdonald.x_g"] is jack.x_g
    assert jack.non_attacking_fillings is before["jack.non_attacking_fillings"]
    assert cli._JQT_METHODS["hhl"] is before["hhl"]
    assert cli._JACK_METHODS["subsets"] is before["subsets"]
    assert verify._SUITE_ITEM["macdonald"] is before["item"]
    assert verify._CONJECTURES["haglund"] is before["haglund"]
    assert rings.LaurentQT.__mul__ is before["mul"]
    assert rings.LaurentQT.__dict__["one"] is before["one"]
    assert cli.json is before["json"]


def _child(mode, *argv):
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, *argv], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
                          capture_output=True, check=False)
    record = json.loads(proc.stderr.splitlines()[-1].split(b" ", 1)[1])
    return proc.returncode, proc.stdout, record


def test_traced_runs_repeat_counts_and_match_plain_output():
    argv = ("verify", "--suite", "all", "--max-n", "4", "--format", "json")
    rc, plain, _ = _child("run", *argv)
    runs = [_child("trace", *argv) for _ in range(2)]
    for traced_rc, out, record in runs:
        assert traced_rc == rc == 0
        assert gate.digest(out) == gate.digest(plain)
        trace = record["trace"]
        # the self times add up to the outermost span, hooks included
        total = sum(trace["self_s"].values()) + trace["trace_s"]
        assert total == pytest.approx(trace["inclusive_s"]["cli.main"], rel=1e-9)
        assert len(trace["item_s"]) == sum(len(report["items"]) for report in json.loads(out))
    first, second = (r[2]["trace"] for r in runs)
    for key in ("calls", "yielded", "counts"):
        assert first[key] == second[key]
    assert first["counts"]["filling_keys"] > 0
