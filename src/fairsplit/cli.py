"""Command-line interface.

Exit codes: 0 success/found, 1 proven negative (no splitting exists, a
condition fails, a predicate is false), 2 input error, 3 resource budget
exceeded, 4 internal error (an unexpected exception; never a verdict).  All
output is canonical JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from math import prod

from .compose import compose, power_of_two_levels
from .complexes import FACE_BUDGET
from .conditions import PATH_SEARCH_BUDGET, check_conditions
from .constraint_map import ConstraintMapInstance, verify_both
from .errors import ContractError, InputError, ResourceBudget, check_size
from .geometry import (GEOMETRY_BUDGET, gale_alternating, hulls_intersect,
                       moment_points, stretched_moment_points,
                       strong_general_position_check, tverberg_search)
from .graphs import (FAMILIES, consecutive_partition, generate_family,
                     single_block_partition)
from .homology import homology
from .kneser import (CHI_NODE_BUDGET, KneserInstance, build_hypergraph,
                     chromatic_formula, chromatic_number,
                     splitting_from_coloring)
from .serial import (canonical_dumps, complex_load, instance_dump,
                     instance_load, load_file, points_dump, points_load,
                     splitting_dump, splitting_load)
from .solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting
from .splitting import SplittingSpec, check_splitting


def _int_list(text, what="list"):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError("cannot parse %s %r; want comma-separated integers"
                         % (what, text)) from None


def _list_flag(text, flag):
    """The integers of a list flag that was given: an empty list is an
    input error, not an absent flag."""
    values = _int_list(text, flag)
    if not values:
        raise InputError("%s lists no integers" % flag)
    return values


def _blocks_partition(text, n):
    """The consecutive partition of 1..n given by --blocks sizes, or one
    block when the flag is absent."""
    if text is None:
        return single_block_partition(n)
    sizes = _list_flag(text, "--blocks")
    if sum(sizes) != n:
        raise InputError("block sizes sum to %d, want %d" % (sum(sizes), n))
    return consecutive_partition(sizes)


def _sets_arg(text):
    """Semicolon-separated comma lists: "1,3;2,4" -> [{1,3},{2,4}]."""
    return [set(_int_list(part, "set")) for part in text.split(";")]


def _load_instance(path):
    g, partition = load_file(path, instance_load)
    if partition is None:
        raise InputError("instance %s has no partition" % path)
    return g, partition


def _spec_from_args(args, q):
    flavor = {"fair": "fair", "almost": "almost_fair",
              "transversal": "transversal"}[args.flavor]
    return SplittingSpec(q=q, flavor=flavor, balanced=args.balanced,
                         stability=args.stability, weak=args.weak)


def _add_spec_flags(p):
    p.add_argument("--flavor", choices=["fair", "almost", "transversal"],
                   default="almost")
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--stability", type=int, default=1)
    p.add_argument("--weak", action="store_true",
                   help="require the weakly-stable window property")


def _add_budget_flag(p, default):
    """--budget; main refuses a negative one before the command runs."""
    p.add_argument("--budget", type=int, default=default)


def cmd_generate(args):
    params = {}
    if args.n is not None:
        params["n"] = check_size("--n", args.n)
    if args.q is not None:
        params["q"] = check_size("--q", args.q)
    if args.r is not None:
        params["r"] = args.r
    g = generate_family(args.family, **params)
    return 0, instance_dump(g, _blocks_partition(args.blocks, g.n))


def cmd_solve(args):
    g, partition = _load_instance(args.input)
    spec = _spec_from_args(args, check_size("--q", args.q))
    caps = None if args.caps is None else _list_flag(args.caps, "--caps")
    config = load_file(args.points, points_load) if args.points else None
    problem = SearchProblem(partition=partition, spec=spec, graph=g,
                            points=config, caps=caps, budget=args.budget)
    out = find_splitting(problem)
    code = {"found": 0, "exhausted_none": 1, "budget_exceeded": 3}[out.status]
    return code, out.to_json()


def cmd_verify(args):
    g, partition = _load_instance(args.input)
    splitting = load_file(args.splitting, splitting_load)
    spec = _spec_from_args(args, len(splitting.sets))
    cert = check_splitting(g, partition, splitting, spec)
    return (0 if cert.ok else 1), cert.to_json()


def cmd_check_conditions(args):
    g, partition = _load_instance(args.input)
    path = None if args.path is None else _list_flag(args.path, "--path")
    report = check_conditions(g, partition, check_size("--q", args.q),
                              n=args.n, path=path, budget=args.budget)
    return (0 if report.any_certified else 1), report.to_json()


def cmd_geometry(args):
    if args.op == "moment":
        if not args.params:
            raise InputError("--op moment needs --params")
        config = moment_points(_int_list(args.params, "--params"),
                               d=args.d, dim=args.dim)
        return 0, points_dump(config)
    if args.op == "stretched":
        if args.n is None:
            raise InputError("--op stretched needs --n")
        config = stretched_moment_points(args.n, d=args.d, dim=args.dim,
                                         base=args.base)
        return 0, points_dump(config)
    if args.op == "gale":
        sets = _sets_arg(args.sets or "")
        if len(sets) != 2:
            raise InputError("--op gale needs --sets with exactly two sets")
        verdict = gale_alternating(sets[0], sets[1])
        return (0 if verdict else 1), {"schema": "predicate/1",
                                       "op": "gale", "value": verdict}
    config = load_file(args.points, points_load) if args.points else None
    if config is None:
        raise InputError("--op %s needs --points FILE" % args.op)
    if args.op == "hulls":
        if args.sets is None:
            raise InputError("--op hulls needs --sets")
        sets = _sets_arg(args.sets)
        n = len(config.points)
        outside = sorted(v for s in sets for v in s if not 1 <= v <= n)
        if outside:
            raise InputError("--sets label %d is not a point label 1..%d"
                             % (outside[0], n))
        verdict = hulls_intersect([config.subset(s) for s in sets])
        return (0 if verdict else 1), {"schema": "predicate/1",
                                       "op": "hulls", "value": verdict}
    if args.op == "sgp":
        ok, witness = strong_general_position_check(config, args.q,
                                                    budget=args.budget)
        doc = {"schema": "predicate/1", "op": "sgp", "value": ok,
               "witness": None if witness is None else
               [sorted(s) for s in witness]}
        return (0 if ok else 1), doc
    # --op tverberg, the last of the choices argparse allows
    got = tverberg_search(config, args.q, target_dim=args.target_dim,
                          budget=args.budget)
    if got is None:
        return 1, {"schema": "tverberg/1", "parts": None, "point": None}
    parts, point = got
    return 0, {"schema": "tverberg/1",
               "parts": [sorted(p) for p in parts],
               "point": [[c.numerator, c.denominator] for c in point]}


def cmd_phi_check(args):
    check_size("ground set vertices", args.q * args.k - args.t)
    order = None if args.order is None else _list_flag(args.order, "--order")
    inst = ConstraintMapInstance(args.q, args.k, args.t, vertex_order=order)
    zs, eq = verify_both(inst, budget=args.budget)
    ok = zs.ok and eq.ok
    return (0 if ok else 1), {"schema": "phi_check/1", "ok": ok,
                              "zero_set": zs.to_json(),
                              "equivariance": eq.to_json()}


def cmd_compose(args):
    n = check_size("--n", args.n)
    partition = _blocks_partition(args.blocks, n)
    if args.t is not None:
        levels = power_of_two_levels(args.t, partition)
    elif args.q1 is None or args.q2 is None:
        raise InputError("compose needs either --t or both --q1 and --q2")
    else:
        levels = [(args.q1, args.q1 if args.s1 is None else args.s1),
                  (args.q2, args.q2 if args.s2 is None else args.s2)]
    splitting, cert = compose(n, partition, levels, budget=args.budget)
    return 0, {"schema": "compose/1", "q": prod(q for q, _ in levels),
               "stability": prod(s for _, s in levels),
               "splitting": splitting_dump(splitting),
               "certificate": cert.to_json()}


def cmd_kneser_chi(args):
    inst = KneserInstance(args.n, args.k, args.q, args.stability)
    h = build_hypergraph(inst)
    chi, witness = chromatic_number(h, budget=args.budget)
    return 0, {"schema": "kneser_chi/1", "n": args.n, "k": args.k,
               "q": args.q, "stability": args.stability,
               "vertices": len(h.vertices), "edges": len(h.edges),
               "chi": chi, "formula": chromatic_formula(args.n, args.k, args.q),
               "coloring": witness}


def cmd_kneser_split(args):
    partition = _blocks_partition(args.blocks, check_size("--n", args.n))
    res = splitting_from_coloring(args.n, partition, args.q, budget=args.budget)
    doc = {"schema": "kneser_split/1", "status": res.status,
           "splitting": None if res.splitting is None else
           splitting_dump(res.splitting),
           "certificate": None if res.certificate is None else
           res.certificate.to_json(),
           "details": res.details}
    return (0 if res.status == "found" else 1), doc


def cmd_homology(args):
    k = load_file(args.input, complex_load)
    rows = homology(k, max_dim=args.max_dim)
    return 0, {"schema": "homology/1",
               "reduced": [{"dim": d, "betti": b, "torsion": t}
                           for d, (b, t) in enumerate(rows)]}


def cmd_suite(args):
    from .suite import run_suite
    doc = run_suite()
    return (0 if doc["all_ok"] else 1), doc


def build_parser():
    p = argparse.ArgumentParser(
        prog="fairsplit",
        description="Exact searches and certificates for fair splittings of "
                    "vertex-partitioned graphs by disjoint independent sets.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit an instance JSON document")
    g.add_argument("--family", choices=sorted(FAMILIES), required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--q", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--blocks", help="comma-separated consecutive block sizes")
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("solve", help="search for a splitting")
    s.add_argument("--input", required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--points", help="points JSON; searches geometrically")
    s.add_argument("--caps", help="per-block upper bound on |S_i ∩ V_j|")
    _add_spec_flags(s)
    _add_budget_flag(s, DEFAULT_NODE_BUDGET)
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="re-check a splitting against an instance")
    v.add_argument("--input", required=True)
    v.add_argument("--splitting", required=True)
    _add_spec_flags(v)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("check-conditions",
                       help="evaluate the sufficient-condition predicates")
    c.add_argument("--input", required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--n", type=int)
    c.add_argument("--path", help="candidate simple path, comma-separated")
    _add_budget_flag(c, PATH_SEARCH_BUDGET)
    c.set_defaults(fn=cmd_check_conditions)

    ge = sub.add_parser("geometry", help="moment-curve configurations and "
                                         "hull predicates")
    ge.add_argument("--op", choices=["moment", "stretched", "hulls", "gale",
                                     "sgp", "tverberg"], required=True)
    ge.add_argument("--params", help="comma-separated curve parameters")
    ge.add_argument("--d", type=int)
    ge.add_argument("--dim", type=int)
    ge.add_argument("--n", type=int)
    ge.add_argument("--base", type=int, default=2)
    ge.add_argument("--points")
    ge.add_argument("--sets", help="semicolon-separated label sets: 1,3;2,4")
    ge.add_argument("--q", type=int, default=2)
    ge.add_argument("--target-dim", type=int, dest="target_dim")
    _add_budget_flag(ge, GEOMETRY_BUDGET)
    ge.set_defaults(fn=cmd_geometry)

    ph = sub.add_parser("phi-check", help="verify the constraint map's zero "
                                          "set and equivariance")
    ph.add_argument("--q", type=int, required=True)
    ph.add_argument("--k", type=int, required=True)
    ph.add_argument("--t", type=int, required=True)
    ph.add_argument("--order", help="vertex order as a comma-separated "
                                    "permutation of 0..n-1")
    _add_budget_flag(ph, FACE_BUDGET)
    ph.set_defaults(fn=cmd_phi_check)

    co = sub.add_parser("compose", help="product splittings of a path")
    co.add_argument("--n", type=int, required=True)
    co.add_argument("--blocks")
    co.add_argument("--t", type=int, help="build the q=2^t splitting")
    co.add_argument("--q1", type=int)
    co.add_argument("--q2", type=int)
    co.add_argument("--s1", type=int)
    co.add_argument("--s2", type=int)
    _add_budget_flag(co, DEFAULT_NODE_BUDGET)
    co.set_defaults(fn=cmd_compose)

    kc = sub.add_parser("kneser-chi", help="exact chromatic number of a "
                                           "Kneser hypergraph")
    kc.add_argument("--n", type=int, required=True)
    kc.add_argument("--k", type=int, required=True)
    kc.add_argument("--q", type=int, required=True)
    kc.add_argument("--stability", choices=["none", "path", "cycle"],
                    default="none")
    _add_budget_flag(kc, CHI_NODE_BUDGET)
    kc.set_defaults(fn=cmd_kneser_chi)

    ks = sub.add_parser("kneser-split", help="splitting of a path via the "
                                             "Kneser coloring reduction")
    ks.add_argument("--n", type=int, required=True)
    ks.add_argument("--blocks")
    ks.add_argument("--q", type=int, required=True)
    _add_budget_flag(ks, DEFAULT_NODE_BUDGET)
    ks.set_defaults(fn=cmd_kneser_split)

    ho = sub.add_parser("homology", help="reduced integral homology of a "
                                         "complex JSON document")
    ho.add_argument("--input", required=True)
    ho.add_argument("--max-dim", type=int, dest="max_dim")
    ho.set_defaults(fn=cmd_homology)

    su = sub.add_parser("suite", help="run the deterministic self-check battery")
    su.set_defaults(fn=cmd_suite)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", 0) < 0:
            raise InputError("--budget must be nonnegative")
        code, doc = args.fn(args)
        text = canonical_dumps(doc)
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except ResourceBudget as e:
        print("resource budget exceeded: %s" % e, file=sys.stderr)
        return 3
    except ContractError as e:
        print("falsification: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
