"""Scenario generators for the benchmark workloads.

Every scenario is a pure function of ``(workload, seed, index)``: the same
arguments give the same config document on any machine, and the program under
test only ever sees the generated config file.

Tone plans are drawn so that the checker's closed forms hold exactly:

* ``k1 > 2 * degree`` and ``gcd(k1, k2) == 1`` make every mixing order
  ``(n1, n2)`` with ``|n1| + |n2| <= degree`` land on its own line, so each
  third-order product line carries one phase progression across the array.
* ``k2 < 1.25 * k1`` lets one element delay hold between one half and one full
  wavelength at both product lines, so each product direction has a
  representative inside the swept interval and the sweep resolves its lobe.
"""

import math
import random

TWO_PI = 2.0 * math.pi

# Per-workload constants.  ``has_baseline`` tells the trace which spans must
# fire; ``min_scenarios`` makes even a short run cover the whole mix.
WORKLOADS = {
    "mc_baseline": {"has_baseline": True, "min_scenarios": 1},
    "wide_array": {"has_baseline": False, "min_scenarios": 1},
    "scenario_batch": {"has_baseline": True, "min_scenarios": 6},
}

MC_ANTENNAS, MC_DEGREE, MC_TRIALS, MC_POINTS = 64, 3, 10_000, 1024
WIDE_ANTENNAS, WIDE_DEGREE, WIDE_POINTS = 1024, 9, 4096
BATCH_ANTENNAS, BATCH_DEGREES, BATCH_TRIALS, BATCH_POINTS = (2, 16), (3, 9), 256, 128

# scenario_batch cycles through its (multi_user, unequal_amplitudes,
# baseline) combinations once per block, in a seed-shuffled order, so each run
# sees the same mix whatever its length.  The equal weights are a choice: no
# record of the mix users run exists.  Unequal amplitudes with a baseline are
# left out of the timed mix: the program rejects them (the baseline needs one
# matched noise power), and a benchmark workload must be one on which no
# operation fails.  The traced run measures how many of them it rejects, from
# ``unequal_baseline``.
BATCH_CATEGORIES = tuple(
    (multi, unequal, baseline)
    for multi in (False, True)
    for unequal in (False, True)
    for baseline in (False, True)
    if not (unequal and baseline)
)
UNEQUAL_BASELINE_PROBES = 4  # configs of the rejected category per traced run


def tone_plan(rng: random.Random, degree: int) -> tuple[int, int]:
    """Tone indices ``k1 < k2`` meeting the conditions in the module doc."""
    while True:
        k1 = rng.randint(2 * degree + 1, 3 * degree + 8)
        gap = rng.randint(1, min(3, (k1 - 1) // 4))
        if math.gcd(k1, gap) == 1:
            return k1, k1 + gap


def _config(
    rng: random.Random,
    *,
    antennas: int,
    degree: int,
    points: int,
    multi_user: bool,
    unequal: bool,
    trials: int | None,
) -> dict:
    k1, k2 = tone_plan(rng, degree)
    gap = k2 - k1
    base_rate = TWO_PI * rng.uniform(0.5, 2.0)
    # element delay: both product lines (2*k1 - k2 and 2*k2 - k1) between
    # half a wavelength and one wavelength per element
    lower, upper = 2 * k1 - k2, 2 * k2 - k1
    lo_c, hi_c = math.pi / lower, TWO_PI / upper
    delta = (lo_c + rng.uniform(0.2, 0.8) * (hi_c - lo_c)) / base_rate
    if multi_user:
        while True:
            t1, t2 = (rng.uniform(-0.9, 0.9) * delta for _ in range(2))
            if abs(t1 - t2) >= 0.1 * delta:
                break
    else:
        t1 = t2 = rng.uniform(-0.9, 0.9) * delta
    a1 = rng.uniform(0.5, 1.0)
    a2 = a1 * rng.uniform(0.4, 0.8) if unequal else a1
    if unequal and rng.random() < 0.5:
        a1, a2 = a2, a1
    # a mildly nonlinear device: the two-tone peaks at twice the tone
    # amplitude, so x**p grows like 2**p; scaling higher orders down keeps the
    # fundamental's gain near 1 instead of letting the orders cancel it
    coefficients = [1.0] + [
        rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.08) * 0.3 ** max(p - 3, 0)
        for p in range(2, degree + 1)
    ]
    doc = {
        "grid": {"base_rate": base_rate, "max_index": degree * k2 + rng.randint(0, 4)},
        "tones": [
            {"index": k1, "amplitude": a1, "phase": rng.uniform(0.0, TWO_PI)},
            {"index": k2, "amplitude": a2, "phase": rng.uniform(0.0, TWO_PI)},
        ],
        "targets": [{"index": k1, "tau": t1}, {"index": k2, "tau": t2}],
        "geometry": {"num_antennas": antennas, "element_delay": delta},
        "nonlinearity": {"coefficients": coefficients},
        "band": {"in_band": [k1, k2], "adjacent_width": gap + rng.randint(0, 2)},
        "sweep_points": points,
        "seed": rng.randrange(2**63),
    }
    if trials is not None:
        doc["baseline"] = {"trials": trials}
    return doc


def _batch_config(rng: random.Random, multi_user: bool, unequal: bool, baseline: bool) -> dict:
    return _config(
        rng,
        antennas=rng.randint(*BATCH_ANTENNAS),
        degree=rng.randint(*BATCH_DEGREES),
        points=BATCH_POINTS,
        multi_user=multi_user,
        unequal=unequal,
        trials=BATCH_TRIALS if baseline else None,
    )


def unequal_baseline(seed: int, index: int) -> dict:
    """A scenario_batch-sized config with unequal tone amplitudes and a
    baseline, alternately single- and multi-user: the category the timed mix
    leaves out."""
    rng = random.Random(f"unequal_baseline/{seed}/{index}")
    return _batch_config(rng, bool(index % 2), True, True)


def scenario(workload: str, seed: int, index: int) -> dict:
    """Config document of scenario ``index`` of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "mc_baseline":
        return _config(
            rng,
            antennas=MC_ANTENNAS,
            degree=MC_DEGREE,
            points=MC_POINTS,
            multi_user=True,
            unequal=False,
            trials=MC_TRIALS,
        )
    if workload == "wide_array":
        return _config(
            rng,
            antennas=WIDE_ANTENNAS,
            degree=WIDE_DEGREE,
            points=WIDE_POINTS,
            multi_user=True,
            unequal=True,
            trials=None,
        )
    block = random.Random(f"{workload}/{seed}/block{index // len(BATCH_CATEGORIES)}")
    order = list(BATCH_CATEGORIES)
    block.shuffle(order)
    return _batch_config(rng, *order[index % len(BATCH_CATEGORIES)])
