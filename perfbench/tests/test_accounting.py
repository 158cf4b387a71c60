"""Failed-request accounting and the independent oracles."""

import oracles
from workloads import LinkWindow, ScalarSync, Tally, settle_batch


class FakeFuture:
    def __init__(self, value=None, error=None, done=True):
        self._value, self._error, self._done = value, error, done

    def done(self):
        return self._done

    def exception(self):
        return self._error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def test_wrong_result_counts_as_failed_without_latency():
    tally = Tally()
    tally.record(5, 5, 0.1)
    tally.record(5, 6, 0.2)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert tally.latencies == [0.1]


def test_broken_batch_counts_every_unresolved_request():
    from repro.host import LinkDownError

    tally = Tally()
    futures = [
        FakeFuture(value=1),                        # resolved, right
        FakeFuture(value=99),                       # resolved, wrong
        FakeFuture(error=LinkDownError("down")),    # failed by the link
        FakeFuture(done=False),                     # never resolved
    ]
    expected = [1, 2, 3, 4, 5, 6]                   # two never issued
    settle_batch(tally, expected, futures, [0.0] * 4, {0: 0.5, 1: 0.5, 2: 0.5})
    assert tally.attempted == 6
    assert tally.failed == 5
    assert tally.wrong == 1
    assert tally.latencies == [0.5]


class _Driver:
    cycles = 0


class _WrongSession:
    """Answers every compute with an off-by-one result."""

    def compute(self, op, a, b):
        return (oracles.int_op(op.name, a, b) + 1) & oracles.MASK


def test_scalar_wrong_value_is_counted_and_the_run_continues():
    wl = ScalarSync(seed=3)
    wl.session, wl.driver = _WrongSession(), _Driver()
    tally = Tally()
    for _ in range(3):
        wl.run_unit(wl.make_unit(), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 3, 3)


class _Pipeline:
    def __init__(self, fail_after):
        self.futures = []
        self.fail_after = fail_after

    def compute(self, op, a, b):
        from repro.host import LinkDownError

        if len(self.futures) == self.fail_after:
            raise LinkDownError("link declared down")
        future = FakeFuture(value=oracles.int_op(op.name, a, b))
        self.futures.append(future)
        return _Callbacked(future)


class _Callbacked:
    def __init__(self, future):
        self.future = future

    def add_done_callback(self, fn):
        fn(self.future)


class _LossySession:
    def __init__(self, fail_after):
        self.fail_after = fail_after

    def pipeline(self):
        import contextlib

        @contextlib.contextmanager
        def scope():
            yield _Pipeline(self.fail_after)

        return scope()


def test_link_down_batch_counts_as_failed_and_reconnects():
    wl = LinkWindow(seed=5)
    wl.session, wl.driver = _LossySession(fail_after=6), _Driver()
    reconnects = []
    wl.reconnect = lambda: reconnects.append(1)
    tally = Tally()
    wl.run_unit(wl.make_unit(), tally)
    assert tally.attempted == wl.unit_size
    assert tally.failed == wl.unit_size - 6
    assert tally.wrong == 0
    assert reconnects == [1]


def test_int_oracle_wraps_to_the_word():
    assert oracles.int_op("ADD", 0xFFFFFFFF, 1) == 0
    assert oracles.int_op("SUB", 0, 1) == 0xFFFFFFFF
    assert oracles.int_op("NEG", 0, 1) == 0xFFFFFFFF
    assert oracles.int_op("NOT", 0, 0) == 0xFFFFFFFF
    assert oracles.int_op("ANDN", 0b1100, 0b1010) == 0b0100


def test_fp_oracle_rounds_to_binary32():
    one_and_half = oracles.f32_bits(1.5)
    quarter = oracles.f32_bits(0.25)
    assert oracles.fp_op("FADD", one_and_half, quarter) == oracles.f32_bits(1.75)
    assert oracles.fp_op("FMUL", one_and_half, quarter) == oracles.f32_bits(0.375)
    # 1 + 2**-24 is not representable: ties to even gives 1.0
    tiny = oracles.f32_bits(2.0 ** -24)
    assert oracles.fp_op("FADD", oracles.f32_bits(1.0), tiny) == oracles.f32_bits(1.0)
