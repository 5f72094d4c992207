"""Cross-check quadrature event probabilities against the Monte-Carlo engine.

Draws random 2-coordinate problems, evaluates every sign-pattern event with
both backends, and reports the worst discrepancy in standard-error units:

    python3 scripts/quad_vs_mc.py --cases 10 --reps 40000 --seed 0
"""

import argparse

import numpy as np

import lassodist as ld


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=10)
    ap.add_argument("--reps", type=int, default=40_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_case = None
    print(f"{'case':>4} {'rho':>6} {'pattern':>8} {'quad':>12} {'mc':>12} {'se':>10} {'z':>6}")
    for k in range(args.cases):
        rho = rng.uniform(-0.8, 0.8)
        gram = np.array([[1.0, rho], [rho, 1.0]])
        prob = ld.design_from_gram(gram)
        lam = rng.uniform(0.2, 1.5, size=2)
        beta = rng.uniform(-1.0, 1.0, size=2)
        tuning = ld.tuning_vector(lam)
        model = ld.gaussian_model(prob, beta, 1.0)
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                d = ld.SignVector(d=(a, b))
                quad = ld.orthant_mass(prob, model, tuning, d).estimate
                mc = ld.prob_region_high(
                    prob, model, tuning, ld.region_orthant(d),
                    n_samples=args.reps, seed=args.seed + 1000 + k,
                )
                se = max(mc.std_error, 1e-12)
                zscore = abs(quad - mc.estimate) / se
                if zscore > worst:
                    worst = zscore
                    worst_case = (k, rho, (a, b))
                print(
                    f"{k:>4} {rho:>6.3f} ({a:+d},{b:+d})  "
                    f"{quad:>12.8f} {mc.estimate:>12.8f} {se:>10.2e} {zscore:>6.2f}"
                )
    print(f"\nworst |quad - mc| = {worst:.2f} standard errors "
          f"(case {worst_case[0]}, rho={worst_case[1]:.3f}, d={worst_case[2]})")
    if worst > 5.0:
        raise SystemExit("discrepancy beyond 5 standard errors")


if __name__ == "__main__":
    main()
