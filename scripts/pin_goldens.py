"""Recompute the frozen regression numbers used by the test suite.

Run after any intentional quadrature or root-finder change, diff the JSON
against the constants in tests/, and update them together with a note in
CHANGES.md.  The sharpness sweep ratios take about five seconds at
128x128 on a 2-core x86-64 machine and are skipped unless --sweeps is
given.
"""

import argparse
import json
import sys

import numpy as np

import fraclab as fl

PI = 3.141592653589793


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sweeps", action="store_true", help="include the 128x128 sharpness ratios")
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args(argv)

    out = {}

    dom64 = fl.build_interval(0.0, 1.0, 64)
    ident = fl.GridFunction.from_callable(dom64, lambda x: x[:, 0])
    out["norm_identity_p2_N64"] = fl.luxemburg_norm(
        ident, fl.constant_field(2.0, fl.POINT), "interior"
    ).lambda_star
    out["seminorm_identity_p2_s025_N64"] = fl.gagliardo_seminorm(
        ident,
        fl.constant_field(2.0, fl.PAIR),
        fl.constant_field(0.25, fl.PAIR),
        fl.pair_quadrature(dom64, "interior"),
    ).lambda_star
    two = fl.GridFunction.from_callable(dom64, lambda x: np.full(x.shape[0], 2.0))
    out["boundary_norm_two_q15_N64"] = fl.luxemburg_norm(
        two, fl.constant_field(1.5, fl.BOUNDARY), "boundary"
    ).lambda_star

    dom256 = fl.build_interval(0.0, 1.0, 256)
    wave = fl.GridFunction.from_callable(dom256, lambda x: np.sin(2.0 * PI * x[:, 0]))
    out["embed_kernel_sin_p3_N256"] = fl.embedding_check(
        wave,
        fl.constant_field(3.0, fl.PAIR),
        fl.constant_field(0.5, fl.PAIR),
        0.25,
        2.0,
        threads=args.threads,
    ).kernel_bound

    sq = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 16, 16)
    one = fl.GridFunction.from_callable(sq, lambda x: np.ones(x.shape[0]))
    out["trace_ratio_unit_16"] = fl.trace_check(
        one,
        fl.constant_field(2.0, fl.PAIR),
        fl.constant_field(1.5, fl.BOUNDARY),
        fl.constant_field(0.5, fl.PAIR),
    ).ratio

    if args.sweeps:
        dom128 = fl.build_rectangle((0.0, 0.0), (1.0, 1.0), 128, 128)
        fam = fl.ConcentrationFamily(
            center=(0.5, 0.0), a=0.45, scales=(1.0, 2.0, 4.0, 8.0), delta=0.25
        )
        p = fl.constant_field(2.0, fl.PAIR)
        s = fl.constant_field(0.5, fl.PAIR)
        for name, qv in (("super", 3.0), ("control", 1.5)):
            rows = fl.sharpness_sweep(
                fam, p, fl.constant_field(qv, fl.BOUNDARY), s, dom128,
                case_id=name, threads=args.threads,
            )
            out[f"sweep_{name}_ratios_128"] = [r.ratio for r in rows]

    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
