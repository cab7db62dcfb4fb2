"""Golden digests of every factory-built policy and of the schema.

For each :func:`~repro.core.factory.available_policies` name, under the
defaults and under one full non-default parameter set, a digest pins
the policy's ``describe()``, its public numeric attributes right after
construction, and the trigger indices on the seeded stream of
``test_policy_goldens``.  ``risk-threshold`` draws from a generator
installed here, so its triggers are pinned too.  Two more digests pin
``policy_schema()`` as JSON and the stdout of ``repro policies
--params``: the published defaults, types and docs.
"""

import hashlib
import json
import numbers

import numpy as np
import pytest

from repro.cli import main
from repro.core.factory import available_policies, make_policy, policy_schema
from repro.core.sla import PAPER_SLO
from tests.core.test_policy_goldens import _stream

#: One full non-default parameter set per policy.
CUSTOM = {
    "adaptive": {
        "n": 3, "window": 32, "k": 3.5, "patience": 4, "grow": 0.5,
        "warmup": 8,
    },
    "clta": {"n": 15, "z": 2.33},
    "cusum": {"k": 0.25, "h": 4.0},
    "entropy": {
        "window": 64, "bins": 8, "drift": 0.4, "patience": 8, "warmup": 64,
        "adapt": 0.01,
    },
    "ewma": {"lam": 0.3, "L": 2.5},
    "never": {},
    "periodic": {"period": 250},
    "predictor": {
        "n": 4, "alpha": 0.4, "beta": 0.2, "lookahead": 8, "bound": 30.0,
        "warmup": 5, "patience": 2,
    },
    "quantile": {"q": 0.9, "limit": 12.0, "window": 50, "patience": 3},
    "risk-threshold": {"soft": 8.0, "hard": 30.0},
    "saraa": {"n": 10, "K": 3, "D": 2},
    "sraa": {"n": 2, "K": 5, "D": 3},
    "static": {"K": 3, "D": 2},
    "threshold": {"limit": 12.0},
    "trend": {"n": 4, "window": 10, "alpha": 0.1, "min_slope": 0.01},
}

#: (defaults digest, non-default digest) per policy name.
DIGESTS = {
    "adaptive": (
        "0c40840c7f133f790972e173b1bc86426b7d35b5b34bfa19372bb6b2d2717382",
        "03b748bf47c4770ad01fd18c875d9ca0e32fb619e8939a722178040ee677fdd2",
    ),
    "clta": (
        "ddadc086741cbb15936311fa87f55996d7f54236250362c668d4c7cc1e62c1aa",
        "6c1cc45178ec563e9cf69a5ff07b3f4ee6bf93f1951f8b5c58850a69b620a700",
    ),
    "cusum": (
        "a0ddcfa506adbb138b04c0473a71e985bc3ec0a367a52821016115d697ab6cd7",
        "5f67577cea8a12f1082b9ae8026b56e0a3728c6ed611287f063d17f6d8b9d1ee",
    ),
    "entropy": (
        "bc5ab6d14cd424b16a71a352d4e7a828ecbf58cc948a1fa4f7327cdf8ee1922f",
        "24f4945de8ffe1c780adcdec0eda91565c28c27777157c0dbc24db50f1d3c970",
    ),
    "ewma": (
        "859d0e26b2c4ab9e13ae0c139566883172f5cc52bf8a575b7cf665bcf09b63f7",
        "792299b6e18da7541fa8848ee1429a301bfeef87b01039b15ea43691568e93db",
    ),
    "never": (
        "ce566b500d8b6fdb4557f22da0213141cd432a2ccd73fcafd0d8e5a6e400dc82",
        "ce566b500d8b6fdb4557f22da0213141cd432a2ccd73fcafd0d8e5a6e400dc82",
    ),
    "periodic": (
        "8c52489592b4e2c42e8b40e3bff661f609e7e1def4738b5eb124a61444ab9cf4",
        "7855af25a1d2e3238bb5d8669cef0b70ec3ca8618f8c9570e4b8dd382eace18f",
    ),
    "predictor": (
        "931213500851f3e9c849b99f465fcd9db7cf4c9e6b152f1117940fcd2aafff4b",
        "d6959fcf19d3147b7dd1b1d79f3bbf00eea4e74e3baa6c72c5f196de6fb7d864",
    ),
    "quantile": (
        "525bd673793843a63a94d2aa155e67788d60c4ee66811e3195b5ddbe547cb39d",
        "79036cd34a9312064f6e73817eddd3791516f41a4ae5c8663b1f66cea8d02225",
    ),
    "risk-threshold": (
        "504ce72033def7a62d35b3a6f9d1510f805f05f8ca93a83bc98964af9684538a",
        "7fb402662015cc9abd20c07083060d3f45885d25381f785c17288fc7c4784fe4",
    ),
    "saraa": (
        "3a3fc02576cd3673d9e58044423eab9545b3a59fbc6793c7e0aed3fd86a552e3",
        "a40049840b6130f6c9a89aa0b3ae21076ef54313d0b1c3a8e7117e4464a757b7",
    ),
    "sraa": (
        "6076b88d4c91fcdfdfac2f4740716888d47d56ee246b533be1ede7026bcc92f0",
        "d5f3418c06d537fa9827252adc3c046ff69f521a4cac3e578c43a17c6a449cd8",
    ),
    "static": (
        "0a270f9549b2756529e6d8d7673db19eb024eaf23e3684c7d6033785d219ba64",
        "af8219e1df0e30d94119628fda8b7336ebe975d541a91c0552a8a8d24acb2165",
    ),
    "threshold": (
        "8ce6bab16e96f8484bd1d69dbc103e0bd493aab9d17ae7f76ff5e11bff56beb9",
        "8a91e53bc8f5e0d1d1e2e890feb672366020ceeb06439f340cf060f82494ac32",
    ),
    "trend": (
        "e1528ce9c4a5e44975923434c25162506fee10c19c5639d1b129a7047af65367",
        "99e8e9abd72ac6d12bdbb154f771a57174d0d3e4161e8102c2ad6d5cd9d17e1e",
    ),
}

SCHEMA_DIGEST = (
    "50e909e98ef9d460ff1c4e1131f3159988f912e0ccb3ddbf979aa690c7d10f9d"
)
CLI_PARAMS_DIGEST = (
    "3230e2470336f771cd7039c1a79bf640f2562ef044ffa2b1200b1e2676dcdf58"
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _fingerprint(name, params):
    policy = make_policy(name, PAPER_SLO, **params)
    lines = [policy.describe()]
    for key, value in sorted(vars(policy).items()):
        if key.startswith("_") or not isinstance(value, numbers.Number):
            continue
        lines.append(f"{key}={value!r}")
    if name == "risk-threshold":
        policy.rng = np.random.default_rng(2006)
    lines.append(" ".join(map(str, policy.observe_many(_stream()))))
    return "\n".join(lines) + "\n"


def test_pins_cover_every_policy_with_full_parameter_sets():
    assert sorted(DIGESTS) == sorted(CUSTOM) == list(available_policies())
    for entry in policy_schema():
        assert set(CUSTOM[entry["name"]]) == {
            p["name"] for p in entry["params"]
        }


@pytest.mark.parametrize("name", available_policies())
def test_default_policy_digest(name):
    assert _sha(_fingerprint(name, {})) == DIGESTS[name][0]


@pytest.mark.parametrize("name", available_policies())
def test_custom_policy_digest(name):
    assert _sha(_fingerprint(name, CUSTOM[name])) == DIGESTS[name][1]


def test_policy_schema_digest():
    assert _sha(json.dumps(policy_schema())) == SCHEMA_DIGEST


def test_policies_params_stdout_digest(capsys):
    assert main(["policies", "--params"]) == 0
    assert _sha(capsys.readouterr().out) == CLI_PARAMS_DIGEST
