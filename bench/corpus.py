"""Fixed inputs of the three workloads and the values their outputs must match.

The corpora never depend on the seed; the seed only shuffles call order.
"""

# decide at cutoff 8 (d = 9): fixed per-step overhead dominates, and
# ``x - 20`` escalates up to T = 320.
DECIDE_1MODE = (
    ("x - 1", 8),
    ("x", 8),
    ("x^2 - 4", 8),
    ("2*x - 4", 8),
    ("2*x - 3", 8),
    ("x^2 + 1", 8),
    ("x - 20", 8),
    ("x - 4", 8),
    ("x - 5", 8),
    ("x - 7", 8),
    ("x^3 - 8", 8),
    ("x^2 - 64", 8),
    ("(x-7)*(x-8)", 8),
)

# decide at d = 36, 81 and 125: dense eigh per midpoint step dominates.
# The acceptance corpus's ``x + y - 20`` (about 40 s) and
# ``x^2 + y^2 - 25`` at cutoff 8 (about 85 s) are left out for run length
# only; both already give correct verdicts.
DECIDE_DENSE = (
    ("x + y - 5", 8),
    ("x*y - 6", 8),
    ("x + y + 1", 8),
    ("x^2 + y^2 - 25", 5),
    ("x + y + z - 3", 4),
    ("x*y - z", 4),
    ("x^2 + y^2 - z^2", 4),
    ("x*y*z - 8", 4),
)

# Exact minimum of p(n)^2 on [0, cutoff]^k for every decide equation.
DECIDE_BOX_MIN = {
    "x - 1": 0,
    "x": 0,
    "x^2 - 4": 0,
    "2*x - 4": 0,
    "2*x - 3": 1,
    "x^2 + 1": 1,
    "x - 20": 144,
    "x - 4": 0,
    "x - 5": 0,
    "x - 7": 0,
    "x^3 - 8": 0,
    "x^2 - 64": 0,
    "(x-7)*(x-8)": 0,
    "x + y - 5": 0,
    "x*y - 6": 0,
    "x + y + 1": 1,
    "x^2 + y^2 - 25": 0,
    "x + y + z - 3": 0,
    "x*y - z": 0,
    "x^2 + y^2 - z^2": 0,
    "x*y*z - 8": 0,
}

# Equations on which the decide loop at the commit that introduced this
# benchmark certifies "no solution" although a zero lies in the box.  They
# stay in the corpora so that a fix shows up as fewer false certificates.
SEED_FALSE_CERTIFICATES = {
    "decide-1mode": frozenset(
        {"x - 4", "x - 5", "x - 7", "x^3 - 8", "x^2 - 64", "(x-7)*(x-8)"}
    ),
    "decide-dense": frozenset({"x*y*z - 8"}),
}

# Minimal ground-class gap on the 101-point grid at cutoff 8, the anchors of
# the acceptance suite, checked at its tolerance abs = 1e-6 * max(1, anchor).
GAP_ANCHORS = {
    "x - 1": 0.6198955076167565,
    "x": 1.0,
    "x^2 - 4": 0.9164262000911728,
    "2*x - 4": 0.9069609692713827,
    "x + y - 5": 0.9184533906114871,
    "x*y - 6": 1.0,
    "x^2 + y^2 - 25": 1.0,
    "2*x - 3": 1.974733661900242,
    "x^2 + 1": 1.0000034065810868,
    "x + y + 1": 1.0000034065810868,
    "x - 20": 0.5285406214629012,
    "x + y - 20": 0.4326014722170921,
}
GRID_SIZE = 101

# certify: the verification side of the pipeline, with no decide loop.
SPECTRAL = tuple((text, 8) for text in GAP_ANCHORS) + (("x^2 + y^2 - z^2", 6),)
# equation, cutoff, total time, step, largest allowed |p_rk4 - p_midexp|
INTEGRATORS = ("x + y - 5", 8, 10.0, 0.005, 1e-6)
BOX_MINIMA = (
    ("x^3 + y^3 + z^3 - 29", 40),
    ("x^2 + y^2 - z^2", 40),
    ("x^2 + y^2 + z^2 + w^2 - 2*x*y*z*w - 1", 20),
)
FULL_SCAN = ("x^2 + y^2 + z^2 - 7", 40)  # 7 is no sum of three squares
BIG_DIAGONAL = ("x^2 + y^2 + z^2 - 7", 16)  # d = 4913

# Box minima of the certify equations, for the self-check.
CERTIFY_BOX_MIN = {
    ("x^2 + y^2 - z^2", 6): 0,
    ("x^3 + y^3 + z^3 - 29", 40): 0,
    ("x^2 + y^2 - z^2", 40): 0,
    ("x^2 + y^2 + z^2 + w^2 - 2*x*y*z*w - 1", 20): 0,
    ("x^2 + y^2 + z^2 - 7", 40): 1,
    ("x^2 + y^2 + z^2 - 7", 16): 1,
}

WORKLOADS = ("decide-1mode", "decide-dense", "certify")


def equations(workload: str) -> list[str]:
    """Every equation text the workload parses."""
    if workload == "decide-1mode":
        return [text for text, _ in DECIDE_1MODE]
    if workload == "decide-dense":
        return [text for text, _ in DECIDE_DENSE]
    if workload == "certify":
        texts = [text for text, _ in SPECTRAL] + [INTEGRATORS[0]]
        texts += [text for text, _ in BOX_MINIMA] + [FULL_SCAN[0], BIG_DIAGONAL[0]]
        return texts
    raise ValueError(f"unknown workload {workload!r}")
