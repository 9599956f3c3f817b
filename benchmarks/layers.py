"""Names of the traced layers, shared by the benchmark runner and the workload process."""

# (module, function) pairs whose calls are timed in traced mode; the field
# evaluation SpinorField.__call__ is traced as "hydrogen.field_eval".
TRACED_FUNCTIONS = (
    ("cli", "render"),
    ("specfun", "quadrature_nodes"),
    ("specfun", "radial_nodes"),
    ("specfun", "hyp1f1_terminating"),
    ("specfun", "spherical_harmonic"),
    ("hydrogen", "eigenstate"),
    ("hydrogen", "radial_fg"),
    ("hydrogen", "spinor_harmonic"),
    ("spindensity", "reduce"),
    ("spindensity", "correlator"),
    ("contextuality", "chsh_value"),
    ("contextuality", "peres_mermin_value"),
    ("contextuality", "optimal_xi"),
    ("clifford", "build_family"),
    ("freeparticle", "free_chsh"),
)
FIELD_EVAL = "hydrogen.field_eval"
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in TRACED_FUNCTIONS) + (FIELD_EVAL,)
ROOT = "cli.main"
# a span of one of these closes one result row of the report
RESULT_SPANS = frozenset({"contextuality.chsh_value", "contextuality.peres_mermin_value"})
