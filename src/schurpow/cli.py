"""Batch command-line front end.

Codes come from files (--in) or family specs (--family); results go to
stdout as JSON (with a top-level schema tag), CSV for sequences, or the
code text format for code-valued results.  Exit status: 0 on success,
1 when a verification fails (a report with holds=false), 2 on usage or
parse errors.  Every run is deterministic given inputs and --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, concat, families, fileio, lattices, metrics, necklace, symtensor
from .codes import LinearCode, trace_descent
from .errors import MismatchError, PreconditionError, TooLargeError, ZeroCodeError
from .fields import GF, field_of_order

SCHEMA = 1


def _emit(payload: dict):
    print(json.dumps(_jsonable({"schema": SCHEMA, **payload})))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, float) and math.isinf(x):
        return "infinity"
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _get_code(args, which: str = "") -> LinearCode:
    path = getattr(args, "in" + which, None)
    fam = getattr(args, "family" + which, None)
    if path:
        return fileio.load_code(path)
    if fam:
        return families.from_spec(fam)
    raise SystemExit2(f"need --in{which} or --family{which}")


class SystemExit2(Exception):
    pass


def _add_code_input(sp, which: str = ""):
    sp.add_argument(f"--in{which}", dest=f"in{which}", metavar="FILE", help="code file")
    sp.add_argument(f"--family{which}", metavar="SPEC", help="family spec, e.g. rs:q=5,n=5,k=3")


def _report_exit(rep) -> int:
    _emit({"report": rep.as_dict()})
    return 0 if rep.holds else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="schurpow", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("product", help="componentwise product of two codes")
    _add_code_input(sp)
    _add_code_input(sp, "2")

    sp = sub.add_parser("power", help="t-th componentwise power")
    _add_code_input(sp)
    sp.add_argument("--t", type=int, required=True)

    sp = sub.add_parser("seq", help="dimension / distance / dual-distance / n_i sequences")
    _add_code_input(sp)
    sp.add_argument("--tmax", type=int, required=True)
    sp.add_argument("--kind", choices=["dim", "dist", "ddual", "ni"], default="dim")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("regularity", help="first stable exponent of the dimension sequence")
    _add_code_input(sp)

    sp = sub.add_parser("decompose", help="indecomposable components")
    _add_code_input(sp)

    sp = sub.add_parser("slices", help="one-dimensional slice generators")
    _add_code_input(sp)

    sp = sub.add_parser("algebra", help="stabilizing algebras")
    _add_code_input(sp)

    sp = sub.add_parser("weights", help="dmin, dual distance, weight hierarchy")
    _add_code_input(sp)

    for name in ("bounds:ddual-product", "bounds:dim-product", "bounds:singleton"):
        sp = sub.add_parser(name, help="bound report for a pair of codes")
        _add_code_input(sp)
        _add_code_input(sp, "2")
        if name == "bounds:singleton":
            _add_code_input(sp, "3")

    sp = sub.add_parser("bounds:regularity", help="regularity upper bounds")
    _add_code_input(sp)

    sp = sub.add_parser("bounds:weights", help="weight inequalities for a product")
    _add_code_input(sp)
    _add_code_input(sp, "2")

    sp = sub.add_parser("bounds:filtration", help="filtration lower bound on a product dimension")
    sp.add_argument("--chain", required=True, help="chain file: subcodes ending at the code")
    _add_code_input(sp, "2")

    for name in ("bounds:roos", "bounds:ecp"):
        sp = sub.add_parser(name, help="decoding-pair style bound")
        for w in ("A", "B", "C"):
            sp.add_argument(f"--in{w}", metavar="FILE")
            sp.add_argument(f"--family{w}", metavar="SPEC")
        if name == "bounds:ecp":
            sp.add_argument("--t", type=int, required=True)

    sp = sub.add_parser("kashyap", help="weight-one product witness for high-rate pairs")
    _add_code_input(sp)
    _add_code_input(sp, "2")

    sp = sub.add_parser("symalg", help="symmetric multilinear algorithm for a field tensor")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=int, default=2)
    sp.add_argument("--form", choices=["mult", "trace"], default="mult")

    sp = sub.add_parser("mu", help="bilinear complexity of GF(q^k) over GF(q)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--variant", choices=["sym", "tri", "nrm"], required=True)

    sp = sub.add_parser("waring", help="Waring number g(t, q)")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)

    sp = sub.add_parser("necklace", help="shift a tuple below the equidistributed bound")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--tuple", required=True, help="comma-separated nonincreasing entries")

    sp = sub.add_parser("orbits", help="orbit table of nonincreasing tuples under shifts")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--rule", choices=["lex_min", "min_degree"], default="lex_min")

    sp = sub.add_parser("universal-check", help="bijectivity of the symmetric-power map")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)

    sp = sub.add_parser("concat-verify", help="power-distance bound for a concatenated code")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    _add_code_input(sp)
    sp.add_argument("--n", type=int, help="random outer length")
    sp.add_argument("--k", type=int, help="random outer dimension")
    sp.add_argument("--seed", type=int, help="seed for a random outer code")

    sp = sub.add_parser("lattice-check", help="carry criterion for a chain file")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--lifting", choices=["naive", "teichmuller"], default="naive")

    sp = sub.add_parser("lattice-invariants", help="volume and minimum norm")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--lifting", choices=["naive", "teichmuller"], default="naive")

    sp = sub.add_parser("fundamental", help="exact a^[t](n, d) by subspace enumeration")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)

    sp = sub.add_parser("trace-descent", help="componentwise trace image over the subfield")
    _add_code_input(sp)
    sp.add_argument("--subfield-q", type=int, required=True)
    return ap


def _get_abc(args):
    out = []
    for w in ("A", "B", "C"):
        path = getattr(args, f"in{w}")
        fam = getattr(args, f"family{w}")
        if path:
            out.append(fileio.load_code(path))
        elif fam:
            out.append(families.from_spec(fam))
        else:
            raise SystemExit2(f"need --in{w} or --family{w}")
    return out


def run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cmd = args.cmd

    if cmd == "product":
        C = _get_code(args).star(_get_code(args, "2"))
        sys.stdout.write(fileio.code_to_text(C))
        return 0

    if cmd == "power":
        sys.stdout.write(fileio.code_to_text(_get_code(args).power(args.t)))
        return 0

    if cmd == "seq":
        C = _get_code(args)
        if args.kind == "dim":
            seq = C.dim_sequence(args.tmax)
        elif args.kind == "ni":
            seq = C.n_i_sequence(args.tmax)
        else:
            powers = C.power_sequence(args.tmax)
            fn = metrics.dmin if args.kind == "dist" else metrics.ddual
            seq = [fn(P) for P in powers]
        if args.format == "csv":
            print(args.kind + "," + ",".join(str(x) for x in seq))
        else:
            _emit({args.kind: seq})
        return 0

    if cmd == "regularity":
        _emit({"regularity": _get_code(args).regularity()})
        return 0

    if cmd == "decompose":
        part, comps = _get_code(args).decompose()
        _emit(
            {
                "blocks": [list(b) for b in part.blocks],
                "components": [fileio.code_to_text(c) for c in comps],
            }
        )
        return 0

    if cmd == "slices":
        sd = _get_code(args).slices()
        _emit(
            {
                "representatives": list(sd.representatives),
                "generators": [[int(x) for x in row] for row in sd.generators],
                "normalized": sd.normalized,
            }
        )
        return 0

    if cmd == "algebra":
        ext, proper = _get_code(args).stabilizing_algebra()
        _emit({"extended": fileio.code_to_text(ext), "proper": fileio.code_to_text(proper)})
        return 0

    if cmd == "weights":
        C = _get_code(args)
        _emit(
            {
                "dmin": metrics.dmin(C) if C.k else None,
                "ddual": metrics.ddual(C),
                "generalized": metrics.generalized_weights(C),
            }
        )
        return 0

    if cmd == "bounds:ddual-product":
        return _report_exit(bounds.ddual_product_bound(_get_code(args), _get_code(args, "2")))
    if cmd == "bounds:dim-product":
        return _report_exit(bounds.dim_product_bound(_get_code(args), _get_code(args, "2")))
    if cmd == "bounds:singleton":
        codes = [_get_code(args), _get_code(args, "2")]
        if getattr(args, "in3", None) or getattr(args, "family3", None):
            codes.append(_get_code(args, "3"))
        return _report_exit(bounds.singleton_product(codes))
    if cmd == "bounds:regularity":
        return _report_exit(bounds.regularity_bounds(_get_code(args)))
    if cmd == "bounds:weights":
        return _report_exit(bounds.weight_bounds(_get_code(args), _get_code(args, "2")))
    if cmd == "bounds:filtration":
        chain_codes = fileio.load_codes(args.chain)
        return _report_exit(
            bounds.filtration_bound(chain_codes[-1], _get_code(args, "2"), chain_codes)
        )
    if cmd == "bounds:roos":
        A, B, C = _get_abc(args)
        return _report_exit(bounds.roos_bound(A, B, C))
    if cmd == "bounds:ecp":
        A, B, C = _get_abc(args)
        return _report_exit(bounds.ecp_check(A, B, C, args.t))

    if cmd == "kashyap":
        c1, c2, A1, A2, j = bounds.kashyap_pair(_get_code(args), _get_code(args, "2"))
        _emit(
            {
                "c1": [int(x) for x in c1],
                "c2": [int(x) for x in c2],
                "A1": list(A1),
                "A2": list(A2),
                "j": j,
            }
        )
        return 0

    if cmd == "symalg":
        f = (
            symtensor.mult_tensor(args.q, args.k, args.t)
            if args.form == "mult"
            else symtensor.trace_form(args.q, args.k, args.t)
        )
        frob, witness = symtensor.is_frobenius_symmetric(f)
        alg = symtensor.symmetric_algorithm(f)
        payload = {
            "frobenius_symmetric": frob,
            "witness": list(witness) if witness else None,
            "exists": alg is not None,
        }
        if alg is not None:
            payload["algorithm"] = alg.as_dict()
        _emit(payload)
        return 0

    if cmd == "mu":
        fn = {"sym": symtensor.mu_sym, "tri": symtensor.mu_tri, "nrm": symtensor.mu_nrm}[args.variant]
        _emit({"value": fn(args.q, args.k)})
        return 0

    if cmd == "waring":
        _emit({"value": symtensor.waring_g(args.t, args.q)})
        return 0

    if cmd == "necklace":
        entries = tuple(int(x) for x in args.tuple.split(","))
        I = necklace.neck(args.r, entries)
        j, rep = necklace.necklace_representative(I)
        _emit({"shift": j, "representative": list(rep.entries)})
        return 0

    if cmd == "orbits":
        table = necklace.orbit_table(args.q, args.r, args.t, args.rule)
        _emit(
            {
                "q": args.q,
                "r": args.r,
                "t": args.t,
                "max_degree": table.max_degree(),
                "orbits": [
                    {
                        "representative": list(o.representative.entries),
                        "size": o.size,
                        "members": [list(m) for m in o.members],
                    }
                    for o in table.orbits
                ],
            }
        )
        return 0

    if cmd == "universal-check":
        rep = necklace.universal_map_check(args.q, args.r, args.t)
        _emit({"report": rep})
        return 0 if rep["bijective"] else 1

    if cmd == "concat-verify":
        sm = concat.build_symbol_map(args.q, args.r, args.t)
        if getattr(args, "in", None) or args.family:
            C = _get_code(args)
        else:
            if args.seed is None or args.n is None or args.k is None:
                raise SystemExit2("random outer code needs --n, --k and --seed")
            C = families.random_code(sm.emb.big, args.n, args.k, args.seed)
        return _report_exit(concat.verify_power_bound(C, sm))

    if cmd == "lattice-check":
        chain = fileio.load_chain(args.chain)
        lift = lattices.build_lifting(chain.field.p, chain.depth, args.lifting)
        return _report_exit(lattices.is_lattice(chain, lift))

    if cmd == "lattice-invariants":
        chain = fileio.load_chain(args.chain)
        lift = lattices.build_lifting(chain.field.p, chain.depth, args.lifting)
        vol, norm = lattices.lattice_invariants(chain, lift)
        _emit({"volume": vol, "min_norm": norm})
        return 0

    if cmd == "fundamental":
        F = field_of_order(args.q)
        _emit({"value": bounds.fundamental_function(F, args.n, args.d, args.t)})
        return 0

    if cmd == "trace-descent":
        from .fields import SubfieldEmbedding

        C = _get_code(args)
        small = field_of_order(args.subfield_q)
        emb = SubfieldEmbedding(small, C.field)
        sys.stdout.write(fileio.code_to_text(trace_descent(C, emb)))
        return 0

    raise SystemExit2(f"unhandled subcommand {cmd}")


def cli_main(argv) -> int:
    """Run one command and return the exit status."""
    try:
        return run(argv)
    except fileio.ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (PreconditionError, MismatchError, ZeroCodeError, TooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(cli_main(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
