"""Golden outputs: pinned sha256 of trace.csv + summary.json for small runs.

A speed change must leave every written byte as it was. The first five
digests were taken from the engine before probe-loss and batch-array
caching, the 4096-sample linreg case from the engine that still built its
datasets from per-row sample objects, so any change to the numbers, the
row order or the file formats shows up here. The two cases for `sum`
combine with latency and warm-up, and for SGD under combined
accumulation, were taken from the engine that still passed each push
through a worker object and a gradient message. The case for
`schedule.batch_scale` was taken from the engine that still built the
experiment twice per run and scaled the base rate through a schedule
object. The two quadratic async cases for SGD, and for Adam with
beta1 = 0 and epsilon = 0, were taken from the engine that still copied
every pulled snapshot and checked finiteness with np.isfinite.
The three diverging quadratic cases were taken from the engine that
still probed every version's loss at its update: the probe goes non-finite
at updates 679, 533 and 400, none on a 64-version boundary, so they pin
how a run ends when that probe waits in a block of queued versions.
The 400-update Adam case with beta2 = 0.5 was taken from the optimizer
that still applied Python-float operands and divided by every bias
correction: its run passes t = 54 and t = 356, where 1 - beta2**t and
1 - beta1**t first round to 1.0, so it pins the steps past both.
The ten-class sync MLP case was taken from the gradient that still built
each push's one-hot label rows and unpacked each pulled version's weights
at every push.
The two 16-worker async Adam cases (WIDE) were taken from the engine
that still stepped the optimizer at each update: there a version is made
~15 updates before a worker first reads it, so the versions an engine
makes together run to ~16. One runs past t = 356, the other diverges
through Adam's v at update 159, inside a block of queued versions.
The two WIDE cases for local accumulation, local_accum-3 at 12 workers
and combined-2-2 at 16, were taken from the engine that still guessed
each run's wave length as (N - 1)/(L*G) and stepped every update at its
push where the guess was below 5, as it was for both.
A change that alters outputs on purpose updates the digests and says why
in CHANGES.md.

`PYTHONPATH=src python tests/test_golden.py` prints every case's digest
on the source it imports, so a change can take its parent's digests from
a checkout of the parent with the same code.
"""

import hashlib
import pathlib
import tempfile

import pytest

from stalesim.config import parse_config
from stalesim.harness import run_experiment

_NOISY = """\
workers = 4
compute.kind = normal
compute.mean = 1.0
compute.std = 0.2
batch.cost_max = 4
optimizer.alpha = 0.01
seed = 3
"""

_QUAD = """\
objective.kind = quadratic
objective.dim = 8
objective.noise_sigma = 1.0
batch.budget = 8
budget.updates = 200
"""

_LINREG = """\
objective.kind = linreg
objective.dim = 10
objective.samples = 256
objective.target_noise = 0.1
batch.budget = 8
budget.updates = 60
"""

# the shape of the benchmark's sweep points: a 4096-sample dataset cut
# into many short batches
_LINREG_LARGE = """\
objective.kind = linreg
objective.dim = 20
objective.samples = 4096
objective.target_noise = 0.1
batch.budget = 8
budget.updates = 100
"""

_MLP = """\
objective.kind = mlp
objective.in_dim = 4
objective.hidden = 8
objective.classes = 3
probe.samples = 64
batch.budget = 16
budget.updates = 60
"""

GOLDEN = {
    "quadratic-async": (
        _QUAD + "strategy = async\n",
        "ad74dfe18d22dee873486aad9bc0851afcbb487d65f9e761d2cd54a32e5bfa62",
    ),
    "mlp-global_accum-4": (
        _MLP + "strategy = global_accum-4\n",
        "8df55fb3d511ea8eaa5279c6d070e02f316a8bc3b132dc1f92af20153e831c7b",
    ),
    "linreg-sync_stale-4": (
        _LINREG + "strategy = sync_stale-4\n",
        "3675e350f3612dbf464495b7110ed25629c8c3266724af2fba7d31c49ae28ce6",
    ),
    "mlp-combined-2-2": (
        _MLP + "strategy = combined-2-2\n",
        "740a76f50d71c85da13efd83cc249ef3d7d7f8bc01f85fa10d97faa25e24552b",
    ),
    "linreg-sync": (
        _LINREG + "strategy = sync\n",
        "e90378c680917ab698593846f768399db482fc87ac85611f5d7b72daf88a6633",
    ),
    "linreg4096-global_accum-4": (
        _LINREG_LARGE + "strategy = global_accum-4\n",
        "c4911665498ed5ead8e6fd8a6a5585da598478f8a5ea3f50d7523c2ec6459fad",
    ),
    "quadratic-local_accum-3-sum-latency-warmup": (
        _QUAD
        + "strategy = local_accum-3\ncombine = sum\n"
        + "comm.latency = 0.25\nschedule.warmup = 5\n",
        "e88b9779edc4d7d3c20d6c5d6125b9a3f9a75c4b25c73e3247105d3b1a03f277",
    ),
    "linreg-combined-3-2-batch_scale": (
        _LINREG
        + "strategy = combined-3-2\nschedule.batch_scale = 0.3\n"
        + "schedule.warmup = 5\nschedule.decay = none\n",
        "7f186c9a1865f1d9317201a5cd486e4203a8f00b521a0ab28859a98c11a0a177",
    ),
    "quadratic-async-sgd": (
        _QUAD + "strategy = async\noptimizer.kind = sgd\n",
        "f3b83a7244879777b170485236047a775a82619b83cca3922da3a9ee14b05fd9",
    ),
    "quadratic-async-beta1-0-eps-0": (
        _QUAD + "strategy = async\noptimizer.beta1 = 0\noptimizer.epsilon = 0\n",
        "15cd2980f3aae47f7ff0d992afd62bf2ec7ac6ab285a252f41a5321ab4766423",
    ),
    "linreg-combined-3-2-sgd": (
        _LINREG + "strategy = combined-3-2\noptimizer.kind = sgd\n",
        "107ecd269e1b43feffa53f7f2351dfcf685302038e81bade4abbf23e7cbf5f2f",
    ),
    # ten classes, so numpy sums each class axis pairwise; under sync
    # every worker pulls each version
    "mlp-sync-classes-10": (
        _MLP.replace("objective.classes = 3", "objective.classes = 10")
        + "strategy = sync\n",
        "58b02ef10161ee562d399996874e052f199fe3c8117691407e76f6bb61deb5e1",
    ),
    "quadratic-async-400-beta2-0.5": (
        _QUAD.replace("budget.updates = 200", "budget.updates = 400")
        + "strategy = async\noptimizer.beta2 = 0.5\n",
        "ee405d80cfcd7556ada4e4f0ae7ec6d25ea95dc9d9f4857412483bb700c01864",
    ),
}


# SGD at a rate that makes the noisy quadratic blow up
_DIVERGING = """\
objective.kind = quadratic
objective.dim = 8
objective.noise_sigma = 1.0
workers = 4
batch.budget = 8
budget.updates = 4000
optimizer.kind = sgd
optimizer.alpha = 0.5
seed = 3
"""

# name: (config, digest, divergence reason)
DIVERGED = {
    "quadratic-async-diverges": (
        _DIVERGING + "strategy = async\n",
        "95ae6d58d1fc037dcbc208a67dcbaf5d05478a4905543f63f3c1d0fa1c5fed11",
        "probe loss went non-finite at update 679",
    ),
    "quadratic-global_accum-4-diverges": (
        _DIVERGING + "strategy = global_accum-4\n",
        "26f0d15ecc409d13af10003863847069f0966371a0b9e4cb6fa96f2eb0a8ffb3",
        "probe loss went non-finite at update 533",
    ),
    "quadratic-sync_stale-3-diverges": (
        _DIVERGING + "strategy = sync_stale-3\n",
        "1efedee0a917deaba66043a0561a6e814ccf5eb1d54d116272f890260918fbb1",
        "probe loss went non-finite at update 400",
    ),
}


# the benchmark's quad-async shape: 16 async workers on Adam, so each
# version is first read ~15 updates after it is made
_WIDE = """\
objective.kind = quadratic
objective.dim = 20
workers = 16
strategy = async
compute.kind = normal
compute.mean = 1.0
compute.std = 0.2
batch.cost_max = 4
batch.budget = 8
optimizer.alpha = 0.01
seed = 3
"""

# name: (config, digest, divergence reason or None)
WIDE = {
    # 480 updates run past t = 356, where 1 - beta1**t first rounds to 1.0
    "quadratic-async-16-workers": (
        _WIDE + "objective.noise_sigma = 2.0\nbudget.updates = 480\n",
        "fc37c598b21bcc8890de825ab50751b0e321137d587b44ef5afea75f0f66430b",
        None,
    ),
    # a gradient above ~9.5e154 overflows Adam's v at update 159: past the
    # first two blocks of 64 versions, and off their boundaries
    "quadratic-async-16-workers-diverges": (
        _WIDE + "objective.noise_sigma = 3e154\nbudget.updates = 400\n",
        "0e12804eb544d8e21a291d82335979f596ef5ffd9f4b348bc195cc1331086289",
        "Adam's second moment went non-finite at update 159",
    ),
    # local accumulation: waves of 1-10 updates (mean ~4.7), so stacked
    # and chained steps both make its versions
    "quadratic-local_accum-3-12-workers": (
        _WIDE.replace("workers = 16", "workers = 12")
        .replace("strategy = async", "strategy = local_accum-3")
        + "objective.noise_sigma = 2.0\nbudget.updates = 400\n",
        "694e0f3d62e76758d27b96011e645798fe4ce572451eb5ffa5bf6b9288cc52c9",
        None,
    ),
    # waves of 1-7 updates (mean ~4.3): from local and server sums
    "quadratic-combined-2-2-16-workers": (
        _WIDE.replace("strategy = async", "strategy = combined-2-2")
        + "objective.noise_sigma = 2.0\nbudget.updates = 400\n",
        "5d9d11a89ab82ed1ce5efd6be5fcc5af351327529bfdd337f22db45beda79805",
        None,
    ),
}


def output_digest(text: str, out_dir, reason: str | None = None) -> str:
    """sha256 of the run's trace.csv and summary.json; the run must end
    with the divergence reason given, or undiverged for None."""
    trace, _ = run_experiment(parse_config(text), str(out_dir))
    assert trace.divergence_reason == reason
    h = hashlib.sha256()
    for name in ("trace.csv", "summary.json"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digest(name, tmp_path):
    text, digest = GOLDEN[name]
    assert output_digest(text + _NOISY, tmp_path) == digest


@pytest.mark.parametrize("name", sorted(DIVERGED))
def test_diverged_outputs_match_golden_digest(name, tmp_path):
    text, digest, reason = DIVERGED[name]
    assert output_digest(text, tmp_path, reason) == digest


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_async_outputs_match_golden_digest(name, tmp_path):
    text, digest, reason = WIDE[name]
    assert output_digest(text, tmp_path, reason) == digest


if __name__ == "__main__":
    cases = {name: (text + _NOISY, None) for name, (text, _) in GOLDEN.items()}
    for full in (DIVERGED, WIDE):
        cases.update({name: (text, reason) for name, (text, _, reason) in full.items()})
    for name in sorted(cases):
        text, reason = cases[name]
        with tempfile.TemporaryDirectory() as d:
            print(name, output_digest(text, pathlib.Path(d), reason))
