"""Head-to-head comparison: amplitude estimation against classical sampling.

Runs the full analysis on both bundled studies and reports each method's
estimate, confidence interval and sample budget.  Both methods get
epsilon 0.01 and 95% confidence, but not on the same scale: Monte Carlo
sizes its budget for a half-width of 0.01 on the metric, while IQAE stops
at a half-width of 0.01 on the amplitude-squared scale, so the two
intervals differ in width.  The printed ratio divides IQAE shots by Monte
Carlo samples; each shot at Grover power k costs 2k+1 operator calls, so
it is not a comparison of cost at matched accuracy.
"""
from gridqmc import builtin_config_path, load_config, run_analysis

for name in ("three_bus", "five_bus"):
    config = load_config(builtin_config_path(name))
    report = run_analysis(config)
    print(f"=== {name} study, line {config.analysis.line}, metric {config.analysis.metric} ===")
    print(f"exact value: {report.exact_value:.6f}")
    for method in ("iqae", "cmc"):
        res = report.results[method]
        print(
            f"  {method:4s}  estimate {res.metric_value:.6f}"
            f"  CI [{res.ci_low:.6f}, {res.ci_high:.6f}]"
            f"  samples {res.shots_total}"
            f"  covers exact: {report.coverage[method]}"
        )
    print(f"quantum/classical sample ratio: {report.sample_ratio:.3f}\n")
