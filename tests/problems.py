"""Problem documents shared by the test modules."""


def p3_problem(cutoff):
    """r=1, l=2, p=4 on flat T^2 with alpha 1 (weight [1]) and 3 (weight [2])."""
    return {
        "r": 1,
        "l": 2,
        "p": 4,
        "matrix_spectrum": [
            {"alpha": "1", "trivial_mult": 0, "weights": [{"m": [1], "mult": 1}], "marker": [1]},
            {"alpha": "3", "trivial_mult": 0, "weights": [{"m": [2], "mult": 1}], "marker": [2]},
        ],
        "laplace": {"provider": "flat_torus", "params": {"d": 2, "cutoff": cutoff}},
        "beta_cutoff": str(cutoff),
        "degF_pos": [{"characters": [], "coeff": 1}],
        "degF_neg": [{"characters": [], "coeff": 1}],
    }
