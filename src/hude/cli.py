"""Command-line interface.

Subcommands: ``gen`` (write instance files), ``query`` (run one algorithm on
a stored instance, print a JSON result), ``bench`` (parameter sweeps to CSV),
``tradeoff`` (lower/upper-bound curves to CSV), ``verify`` (invariant suite).
Data goes to files or stdout; logs go to stderr; everything except wall-time
fields is deterministic under ``--seed``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from functools import partial

import numpy as np

from . import __version__
from .bench import SWEEP_PARAMS, AdaptiveSearchError, ExperimentConfig, run_sweep
from .distributions import OpCounter, write_rows
from .elimination import eliminate
from .instances import FAMILIES, GapssInstance, GenerationError, load_instance, save_instance
from .rng import stream_key, substream
from .subset_index import (
    VARIANT_BUCKET_ELIMINATE,
    VARIANTS,
    IndexParams,
    dump_index,
    preprocess,
    query,
    theoretical_params,
)
from .tradeoff import DEFAULT_CURVES, tradeoff_rows
from .verify import SUITES, run_suite


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _check_writable(path) -> None:
    """Raise the ``OSError`` that writing ``path`` would, creating and truncating nothing."""
    try:
        open(path, "x").close()
    except FileExistsError:
        open(path, "a").close()  # append mode keeps the file's bytes
    else:
        os.remove(path)


def _parse_grid(spec: str) -> list[float]:
    """Grid syntax 'lo:hi:logN' (geometric, both ends finite and positive) or
    'lo:hi:linN' (arithmetic)."""
    try:
        lo_s, hi_s, kind = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(kind[3:])
        space = {"log": np.geomspace, "lin": np.linspace}.get(kind[:3])
        if space is np.geomspace and not (0.0 < lo < np.inf and 0.0 < hi < np.inf):
            space = None
        if space is not None and count >= 1:
            return space(lo, hi, count).tolist()
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad grid spec {spec!r} (want lo:hi:logN with finite positive ends"
        " or lo:hi:linN, N >= 1)"
    )


def _parse_values(spec: str) -> list[int]:
    """``bench --values``: comma-separated integers (their range is the config's rule)."""
    values = []
    for token in spec.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"--values entry {token!r} is not an integer") from None
    return values


# Generator parameter -> (its ``gen`` flag, help); FAMILIES says who uses it.
_GEN_FLAGS = {
    "s": ("--s", "sample-ratio parameter"),
    "epsilon": ("--eps", "L1 separation promise"),
    "w_u": ("--w-u", "support inclusion probability"),
    "w_q": ("--w-q", "query inclusion probability"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hude",
        description="Half-uniform density estimation: generators, index, benchmarks, curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance and write its files")
    gen.add_argument("--problem", required=True, choices=list(FAMILIES))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    for name, (flag, text) in _GEN_FLAGS.items():
        users = ", ".join(p for p, family in FAMILIES.items() if name in family.params)
        gen.add_argument(flag, dest=name, type=float, help=f"{text} ({users})")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    qry = sub.add_parser("query", help="run one algorithm against a stored instance")
    qry.add_argument("--instance", required=True, help="directory written by gen")
    qry.add_argument("--algorithm", required=True, choices=["subset", "elimination"])
    qry.add_argument("--variant", choices=VARIANTS, default=VARIANT_BUCKET_ELIMINATE)
    qry.add_argument("--ell", type=int, help="probe size (subset)")
    qry.add_argument("--num-probes", type=int, help="probe count L (subset)")
    qry.add_argument("--rho-u", type=float,
                     help="derive L and ell from the space-exponent rule instead")
    qry.add_argument("--c", type=float, default=5.0,
                     help="probe-count constant of the space-exponent rule")
    qry.add_argument("--c-query", type=float, default=4.0)
    qry.add_argument("--eps", type=float, help="override the certify budget separation")
    qry.add_argument("--seed", type=int, default=0)
    qry.add_argument("--dump-index", help="also write a debug dump of the index here")

    ben = sub.add_parser("bench", help="parameter sweep over both algorithms")
    # Each dest below but out and config is the ExperimentConfig field the flag sets.
    ben.add_argument("--sweep", dest="sweep_param", choices=SWEEP_PARAMS)
    ben.add_argument("--values", dest="sweep_values", help="comma-separated sweep values")
    ben.add_argument("--seed", type=int)
    ben.add_argument("--out", required=True, help="results CSV path")
    ben.add_argument("--scale", type=float, help="multiply k by this factor (0.2 = desk preset)")
    ben.add_argument("--queries", type=int, dest="queries_per_point",
                     help="queries per sweep point")
    ben.add_argument("--variant", choices=VARIANTS)
    ben.add_argument("--L-init", type=int, dest="L_init")
    ben.add_argument("--L-factor", type=float, dest="L_factor")
    ben.add_argument("--L-cap", type=int, dest="L_cap")
    ben.add_argument("--config", help="JSON config file; explicit flags override it")

    tro = sub.add_parser("tradeoff", help="emit trade-off curves as CSV")
    tro.add_argument("--rho-u", type=float, required=True)
    tro.add_argument("--s-grid", type=_parse_grid, required=True,
                     help="sample-ratio grid, e.g. 20:10000:log25")
    tro.add_argument("--eps", type=float, default=1.0)
    tro.add_argument("--w-u", type=float, default=0.5)
    tro.add_argument("--curves", default=",".join(DEFAULT_CURVES),
                     help="comma-separated curve ids")
    tro.add_argument("--prior-constant", type=float,
                     help="leading constant for the prior-general curve")
    tro.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--suite", default="all", choices=["all", *SUITES])

    return parser


def _cmd_gen(args) -> int:
    family = FAMILIES[args.problem]
    missing = [_GEN_FLAGS[name][0] for name in family.params if getattr(args, name) is None]
    if missing:
        _log(f"gen {args.problem} needs {' and '.join(missing)}")
        return 2
    values = [getattr(args, name) for name in family.params]
    instance = family.generator(args.n, args.k, *values, seed=args.seed)
    save_instance(instance, args.out)
    _log(f"wrote {args.problem} instance (n={args.n}, k={args.k}) to {args.out}")
    return 0


def _cmd_query(args) -> int:
    instance = load_instance(args.instance)
    if isinstance(instance, GapssInstance):
        _log("query runs on sample-based instances; "
             "reduce gapss with hude.instances.reduce_gapss_to_urde")
        return 2
    counter = OpCounter()
    epsilon = args.eps if args.eps is not None else getattr(instance, "epsilon", 1.0)
    if args.algorithm == "elimination":
        candidates = np.arange(instance.dataset.k)
        run = partial(eliminate, instance.dataset, candidates, instance.query, counter)
    else:
        if args.rho_u is not None:
            choice = theoretical_params(
                args.rho_u, instance.s, instance.dataset.k, epsilon,
                c=args.c, c_query=args.c_query, variant=args.variant,
            )
            params = choice.params
            _log(
                f"space-exponent rule: L={params.num_probes} ell={params.probe_size} "
                f"predicted rho_q={choice.predicted_rho_q:.4f}"
                + (" (ell clamped)" if choice.clamped else "")
            )
        elif args.ell is None or args.num_probes is None:
            _log("subset queries need --ell and --num-probes (or --rho-u)")
            return 2
        else:
            params = IndexParams(args.num_probes, args.ell, c_query=args.c_query,
                                 variant=args.variant)
        index = preprocess(instance.dataset, params, stream_key(args.seed, "cli-preprocess"))
        if args.dump_index:
            with open(args.dump_index, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(dump_index(index))
        rng = substream(args.seed, "cli-certify")
        run = partial(query, index, instance.query, epsilon, counter, rng=rng)
    start = time.perf_counter_ns()
    result = run()
    elapsed = time.perf_counter_ns() - start
    payload = {
        "outcome": result.outcome,
        "index": result.index,
        "ops": counter.membership_ops,
        "wall_time_ns": elapsed,
        "truth_index": instance.truth_index,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    payload = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name, None) is not None}
    if "sweep_values" in overrides:
        overrides["sweep_values"] = _parse_values(overrides["sweep_values"])
    config = ExperimentConfig.from_json(payload, overrides)
    _check_writable(args.out)
    _log(f"sweeping {config.sweep_param} over {list(config.sweep_values)} (seed {config.seed})")
    try:
        rows = run_sweep(config)
    except AdaptiveSearchError as err:
        _log(f"adaptive probe search aborted at {err.point}: {err}")
        _log(f"accuracy trace: {err.trace}")
        return 1
    metadata = {"config": {**payload, **overrides}, "version": __version__}
    write_rows(rows, args.out, metadata)
    _log(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_tradeoff(args) -> int:
    curves = tuple(c for c in args.curves.split(",") if c)
    _check_writable(args.out)
    rows = tradeoff_rows(
        args.rho_u,
        args.s_grid,
        epsilon=args.eps,
        w_u=args.w_u,
        curves=curves,
        prior_constant=args.prior_constant,
    )
    metadata = {
        "rho_u": args.rho_u,
        "epsilon": args.eps,
        "w_u": args.w_u,
        "curves": list(curves),
        "version": __version__,
    }
    write_rows(rows, args.out, metadata)
    _log(f"wrote {len(rows)} curve points to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = 0
    for name, passed, detail in results:
        if passed:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "query": _cmd_query,
        "bench": _cmd_bench,
        "tradeoff": _cmd_tradeoff,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except OSError as err:
        _log(f"file error: {err}")
        return 1
    except (ValueError, GenerationError) as err:
        _log(f"error: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
