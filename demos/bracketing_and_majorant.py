"""Watch the monotone bracket close around the solution and compare the
recorded step sizes against the a-priori d_{n+1} = log(1 + d_n) majorant."""

from mixedfp import (
    IterationConfig,
    build_log_example,
    builtin_log_triple,
    cyclic_shift_upsilon,
    initial_bracket,
    iterate_step,
    pointwise_leq,
    product_operator,
    solve,
    sup_metric,
)
from mixedfp.contraction import majorant_for

problem = build_log_example(2.0, 2.0)
upsilon = cyclic_shift_upsilon(1)
F = product_operator(problem)

print("bracket width at t = 1 per sweep:")
x = initial_bracket(problem, 2.0)
for n in range(8):
    width = x[1].values[0] - x[0].values[0]
    print(f"  sweep {n}: [{x[0].values[0]:.8f}, {x[1].values[0]:.8f}]  "
          f"width {width:.2e}")
    x = iterate_step(F, upsilon, x)

report = solve(F, upsilon, initial_bracket(problem, 2.0), IterationConfig(),
               builtin_log_triple(), dist=sup_metric, leq=pointwise_leq)
bound = majorant_for(report, builtin_log_triple())

print("\nstep size vs log(1 + .) majorant:")
for n, (step, b) in enumerate(zip(report.step_history, bound)):
    print(f"  sweep {n}: step {step:.3e}  <=  majorant {b:.3e}")
    if step < 1e-12:
        break
