"""Golden sha256 digests of every bucket policy's decision-event stream.

Each configuration is fed one seeded stream -- healthy, then a ramp of
the response-time scale, then healthy again -- with an external
``reset()`` halfway through.  A recording :class:`DecisionListener`
writes one line per hook call (batch, level, trigger, resize, reset),
prefixed with the observation index.  Floats are recorded with
``repr``, and every batch line also carries the ``level`` and ``fill``
read off the policy the way ``TracingDecisionListener.on_batch`` reads
them.  The digests pin the exact event order and values of SRAA,
static, SARAA (under all three schedules) and CLTA.
"""

import hashlib
import random

import pytest

from repro.core import (
    CLTA,
    PAPER_SLO,
    SARAA,
    SRAA,
    DecisionListener,
    StaticRejuvenation,
    geometric_acceleration,
    linear_acceleration,
    no_acceleration,
)

HEALTHY = 600
RAMP = 600
RESET_AT = (2 * HEALTHY + RAMP) // 2


def _stream():
    rng = random.Random(20060625)
    values = [rng.expovariate(1 / 5.0) for _ in range(HEALTHY)]
    for step in range(RAMP):
        scale = 5.0 + 60.0 * step / RAMP
        values.append(rng.expovariate(1 / scale))
    values.extend(rng.expovariate(1 / 5.0) for _ in range(HEALTHY))
    return values


class _Recorder(DecisionListener):
    def __init__(self):
        self.index = -1
        self.lines = []

    def _log(self, *fields):
        self.lines.append(" ".join(str(f) for f in (self.index,) + fields))

    def on_batch(self, policy, batch_mean, target, sample_size, exceeded):
        self._log(
            "batch",
            repr(batch_mean),
            repr(target),
            sample_size,
            exceeded,
            getattr(policy, "level", 0),
            getattr(getattr(policy, "chain", None), "fill", 0),
        )

    def on_transition(self, policy, direction, level, fill, target):
        self._log("level", direction, level, fill, repr(target))

    def on_trigger(self, policy, batch_mean, threshold, level, sample_size):
        self._log(
            "trigger", repr(batch_mean), repr(threshold), level, sample_size
        )

    def on_resize(self, policy, old_size, new_size, level):
        self._log("resize", old_size, new_size, level)

    def on_reset(self, policy):
        self._log("reset")


CONFIGS = {
    "SRAA(2,5,3)": lambda: SRAA(PAPER_SLO, 2, 5, 3),
    "SRAA(15,3,1)": lambda: SRAA(PAPER_SLO, 15, 3, 1),
    "Static(2,3)": lambda: StaticRejuvenation(PAPER_SLO, 2, 3),
    "SARAA(2,5,3)/linear": lambda: SARAA(
        PAPER_SLO, 2, 5, 3, schedule=linear_acceleration
    ),
    "SARAA(2,5,3)/none": lambda: SARAA(
        PAPER_SLO, 2, 5, 3, schedule=no_acceleration
    ),
    "SARAA(2,5,3)/geometric": lambda: SARAA(
        PAPER_SLO, 2, 5, 3, schedule=geometric_acceleration
    ),
    "SARAA(10,3,1)/linear": lambda: SARAA(
        PAPER_SLO, 10, 3, 1, schedule=linear_acceleration
    ),
    "SARAA(10,3,1)/none": lambda: SARAA(
        PAPER_SLO, 10, 3, 1, schedule=no_acceleration
    ),
    "SARAA(10,3,1)/geometric": lambda: SARAA(
        PAPER_SLO, 10, 3, 1, schedule=geometric_acceleration
    ),
    "CLTA(30,1.96)": lambda: CLTA(PAPER_SLO, 30, 1.96),
    "CLTA(15,1.0)": lambda: CLTA(PAPER_SLO, 15, 1.0),
}

DIGESTS = {
    "SRAA(2,5,3)": (
        "f0048fe996d41ff15126e32b8b9493b588cdf1e39b61bd01c44ab1982c088bcd"
    ),
    "SRAA(15,3,1)": (
        "cc57b2aab204f2ad56366eb30dd2cdc5e9ecd166f11202073de083f9755366d0"
    ),
    "Static(2,3)": (
        "621934640f879d2e447d5885bf41ad35371b5208c319b17462f5e9ba69ff4292"
    ),
    "SARAA(2,5,3)/linear": (
        "dcddce6c3142514a68a10d058ea80032a00df8332e62397e6d68125b83430649"
    ),
    "SARAA(2,5,3)/none": (
        "e52031a1cbeb657b51d50f74a7604a11720332d2f92bdb77e5aa2a412efba56a"
    ),
    "SARAA(2,5,3)/geometric": (
        "dcddce6c3142514a68a10d058ea80032a00df8332e62397e6d68125b83430649"
    ),
    "SARAA(10,3,1)/linear": (
        "47830e8204a68ee5d3dfeb16c92e2497b75c0d554fa6c488835aa97e633b8dbe"
    ),
    "SARAA(10,3,1)/none": (
        "978a5bbbfef9fb39035c5ef75a787e2573151c72f26c624301653fa6de1a2e7a"
    ),
    "SARAA(10,3,1)/geometric": (
        "57b22d5089cb377c08ac8e85351154ca226f8183201185420a07f76c0fe63424"
    ),
    "CLTA(30,1.96)": (
        "bbd5acf432cd87a001b859b4d9b697c35b7587e9ec8377bceec502f3d33b07ba"
    ),
    "CLTA(15,1.0)": (
        "8b8379e8e208dbbcedda6869c28be4910b6165340ccfd07e63717ab9ecf5a094"
    ),
}


def _events(name):
    policy = CONFIGS[name]()
    recorder = _Recorder()
    policy.set_listener(recorder)
    for index, value in enumerate(_stream()):
        recorder.index = index
        if index == RESET_AT:
            policy.reset()
        if policy.observe(value):
            recorder._log("fired")
    return recorder.lines


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_decision_event_digest(name):
    text = "\n".join(_events(name)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
