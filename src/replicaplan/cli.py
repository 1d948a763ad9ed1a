"""Experiment harness: generate instances, run planners, sweep replica caps.

Subcommands
    gen      build topology.json, scenario.json and cost_matrix.csv from knobs
    solve    run one planner over a generated instance
    sweep    run several planners across a list of replica caps
    inspect  validate and summarize a placement file

One master ``--seed`` drives everything: sub-seeds for the topology, link
costs, catalog, traffic, availability draw and planner object order are
derived by hashing ``"<master>:<label>"`` (sha256, first 8 bytes), so each
component is independently reproducible.  Reruns with identical flags write
identical bytes, except the runtime_ms column of result CSVs.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import costs, heuristics, topology, workload
from .errors import ConstraintError, ParameterError, ReplicaPlanError, StructuralError
from .model import (
    INT64_LIMIT,
    PlacementState,
    Scenario,
    ServerCatalog,
    load_placement,
    save_placement,
    validate_placement,
)


def derive_seed(master: int, label: str) -> int:
    """Stable sub-seed for one named component of a run."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    cap: int | None
    seed: int
    c_old: int
    c_new: int
    impl_cost: int
    benefit_total: float
    flips: int
    evictions: int
    min_avail_old: float
    min_avail_new: float
    runtime_ms: int

    def to_csv_line(self) -> str:
        return ",".join("unlimited" if v is None else v if isinstance(v, str) else repr(v)
                        for v in astuple(self))


RESULTS_HEADER = ",".join(f.name for f in fields(ResultRow))


def _write_results(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_line() + "\n")


def _parse_caps(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            caps = tuple(range(int(lo), int(hi) + 1))
        else:
            caps = tuple(int(part) for part in text.split(","))
    except (ValueError, OverflowError, MemoryError) as exc:  # MemoryError: too long to allocate
        raise argparse.ArgumentTypeError(f"bad caps list {text!r}: {exc}") from exc
    if not caps or caps[0] != 1 or any(b <= a for a, b in zip(caps, caps[1:])):
        raise argparse.ArgumentTypeError(
            f"caps must be strictly increasing and start at 1, got {text!r}"
        )
    return caps


def _parse_cap(text: str) -> int | None:
    if text == "unlimited":
        return None
    try:
        return topology._count(int(text), "cap")
    except ValueError as exc:  # not an integer, or below 1
        raise argparse.ArgumentTypeError(f"cap must be 'unlimited' or >= 1, got {text!r}") from exc


def _parse_algs(text: str) -> tuple[str, ...]:
    try:
        algs = tuple(topology._choice(a, heuristics.ALGORITHMS, "algorithm")
                     for a in text.split(","))
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if len(set(algs)) < len(algs):
        raise argparse.ArgumentTypeError(f"algorithms must not repeat, got {text!r}")
    return algs


def _capacities(policy: str, caps: tuple[int, ...], objects, n_servers: int) -> np.ndarray:
    """Apply a capacity policy to a generated catalog.

    ``slack:F``: each server gets its primary load plus F times the storage an
    even spread of the largest swept cap would need.  ``unbounded``: every
    server can hold the full catalog.  Capacities must stay below 2**63.
    """
    kind, args = topology._spec(policy, {"unbounded": 0, "slack": 1}, "capacity policy")
    sizes = objects.sizes
    primary_load = np.zeros(n_servers, dtype=np.int64)
    np.add.at(primary_load, objects.primaries, sizes)
    total_size = int(sizes.sum())
    if kind == "unbounded":
        extra = total_size
    else:
        factor = topology._real(args[0], "slack factor", low=0)
        extra_replicas = max(caps) - 1
        # Capped at 2**63 (an inf product included) so the check below refuses it.
        extra = int(min(factor * total_size * extra_replicas / n_servers, INT64_LIMIT))
    if int(primary_load.max(initial=1)) + extra >= INT64_LIMIT:
        raise ParameterError(f"capacity policy {policy!r} gives capacities reaching 2**63")
    return np.maximum(primary_load, 1) + extra


def _build_instance(args) -> tuple[topology.Graph, topology.CostMatrix, Scenario]:
    """Generate the instance the ``gen`` flags describe."""
    seed = args.seed
    graph = topology.generate_ba_topology(args.nodes, args.m_links, derive_seed(seed, "topology"))
    graph = topology.assign_link_costs(graph, args.cost_lo, args.cost_hi,
                                       derive_seed(seed, "costs"))
    matrix = topology.all_pairs_shortest_paths(graph)
    catalog = workload.generate_object_catalog(
        args.objects, args.size_lo, args.size_hi, args.nodes, derive_seed(seed, "catalog")
    )
    traffic = workload.generate_traffic(args.nodes, args.objects, args.traffic, args.zipf_skew,
                                        args.traffic_volume, derive_seed(seed, "traffic"))
    meta: dict = {
        "master_seed": seed,
        "capacity_policy": args.capacity_policy,
        "caps": list(args.caps),
        "traffic_model": {"kind": args.traffic, "zipf_skew": args.zipf_skew,
                          "total_volume": args.traffic_volume},
    }
    if args.trace is not None:
        trace = workload.load_failure_trace(args.trace)
        failure_probs = workload.trace_availability_for_servers(trace, args.nodes)
        meta["availability_source"] = {"trace": str(args.trace),
                                       "node_mapping": "trace node id modulo server count"}
    else:
        failure_probs = workload.synthetic_availability(
            args.nodes, args.synthetic_availability, derive_seed(seed, "availability")
        )
        meta["availability_source"] = {"synthetic": args.synthetic_availability}
    capacities = _capacities(args.capacity_policy, args.caps, catalog, args.nodes)
    servers = ServerCatalog(capacities, failure_probs)
    scenario = Scenario(servers, catalog, traffic, meta=meta)
    return graph, matrix, scenario


def _load_instance(args) -> tuple[topology.CostMatrix, Scenario]:
    graph = topology.load_topology(args.topology)
    matrix = topology.all_pairs_shortest_paths(graph)
    scenario = Scenario.load(args.scenario)
    if scenario.servers.count != graph.node_count:
        raise StructuralError(
            f"scenario has {scenario.servers.count} servers but topology has "
            f"{graph.node_count} nodes"
        )
    return matrix, scenario


def _run_cell(state: PlacementState, algorithm: str, cap: int | None,
              args) -> tuple[heuristics.PlacementResult, ResultRow]:
    """Plan from ``state`` with one planner and cap; ``state`` is left unchanged."""
    config = heuristics.SolverConfig(
        algorithm=algorithm,
        max_replicas_per_object=cap,
        availability_scope=args.availability_scope,
        availability_semantics=args.availability_semantics,
        seed=derive_seed(args.seed, f"permutation:{algorithm}:{cap}"),
    )
    started = time.perf_counter()
    result = heuristics.solve(state, config)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    f = state.servers.failure_probs
    sem = args.availability_semantics
    row = ResultRow(
        algorithm=algorithm,
        cap=cap,
        seed=args.seed,
        c_old=result.c_old,
        c_new=result.c_new,
        impl_cost=result.impl_cost_total,
        benefit_total=result.benefit_total,
        flips=result.flips,
        evictions=result.evictions,
        min_avail_old=float(costs.availability_per_object(state.x, f, sem).min()),
        min_avail_new=float(costs.availability_per_object(result.x_new, f, sem).min()),
        runtime_ms=elapsed_ms,
    )
    return result, row


def cmd_gen(args) -> int:
    graph, matrix, scenario = _build_instance(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    topology.save_topology(graph, out / "topology.json")
    matrix.to_csv(out / "cost_matrix.csv")
    scenario.save(out / "scenario.json")
    print(f"wrote topology.json, cost_matrix.csv, scenario.json to {out}")
    return 0


def cmd_solve(args) -> int:
    matrix, scenario = _load_instance(args)
    x_old = None
    if args.x_old is not None:
        x_old = load_placement(args.x_old, scenario.servers.count, scenario.objects.count)
        bad = validate_placement(x_old, scenario.servers, scenario.objects)
        if bad:
            raise ConstraintError(f"starting placement is invalid: {bad[0].detail}")
    state = PlacementState.from_scenario(matrix, scenario, x=x_old)
    result, row = _run_cell(state, args.alg, args.cap, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_placement(result.x_new, out / "placement.json")
    payload = {"algorithm": args.alg, "cap": args.cap, "seed": args.seed}
    payload.update(result.to_json_dict())
    topology._write_json(out / "result.json", payload)
    _write_results(out / "results.csv", [row])
    print(RESULTS_HEADER)
    print(row.to_csv_line())
    return 0


def cmd_sweep(args) -> int:
    state = PlacementState.from_scenario(*_load_instance(args))
    rows = []
    for algorithm in sorted(args.algs):
        for cap in args.caps:
            _, row = _run_cell(state, algorithm, cap, args)
            rows.append(row)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_results(out / "results.csv", rows)
    if args.gnuplot:
        _write_gnuplot(out, sorted(args.algs))
    print(f"wrote {len(rows)} result rows to {out / 'results.csv'}")
    return 0


def _write_gnuplot(out: Path, algs: list[str]) -> None:
    lines = [
        "# transfer spend vs replica cap, one curve per planner",
        "set datafile separator ','",
        "set xlabel 'replica cap'",
        "set ylabel 'implementation cost (bytes x hops)'",
        "set key left top",
        "plot " + ", \\\n     ".join(
            f"\"< awk -F, '$1==\\\"{alg}\\\"' results.csv\" using 2:6 "
            f"with linespoints title '{alg}'"
            for alg in algs
        ),
    ]
    (out / "plot_impl_cost.gp").write_text("\n".join(lines) + "\n")


def cmd_inspect(args) -> int:
    matrix, scenario = _load_instance(args)
    x = load_placement(args.placement, scenario.servers.count, scenario.objects.count)
    violations = validate_placement(x, scenario.servers, scenario.objects)
    report: dict = {"valid": not violations,
                    "violations": [asdict(v) for v in violations]}
    if not violations:
        state = PlacementState.from_scenario(matrix, scenario, x=x)
        cost_report = costs.total_access_cost(state.x, state.n, state.traffic, state.l)
        avail = costs.availability_per_object(
            state.x, state.servers.failure_probs, args.availability_semantics
        )
        counts = state.replica_counts
        histogram = {int(c): int((counts == c).sum()) for c in sorted(set(counts.tolist()))}
        report.update(
            {
                "total_access_cost": cost_report.total,
                "object_availability": {
                    "min": float(avail.min()),
                    "mean": float(avail.mean()),
                    "per_object": [float(a) for a in avail],
                },
                "replica_histogram": histogram,
            }
        )
        print(f"placement valid: total access cost {cost_report.total}")
        print(f"object availability: min {avail.min():.6f} mean {avail.mean():.6f}")
        print("replicas per object: " + ", ".join(f"{k}x{v}" for k, v in histogram.items()))
    else:
        for v in violations:
            print(f"violation ({v.kind}): {v.detail}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        topology._write_json(out / "report.json", report)
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replicaplan",
        description="Availability-aware replica placement planner and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem instance")
    gen.add_argument("--nodes", type=int, default=50)
    gen.add_argument("--m-links", type=int, default=1)
    gen.add_argument("--cost-lo", type=int, default=1)
    gen.add_argument("--cost-hi", type=int, default=10)
    gen.add_argument("--objects", type=int, default=1000)
    gen.add_argument("--size-lo", type=int, default=1000)
    gen.add_argument("--size-hi", type=int, default=5000)
    gen.add_argument("--traffic", choices=workload.TRAFFIC_KINDS, default="zipf")
    gen.add_argument("--zipf-skew", type=float, default=0.8)
    gen.add_argument("--traffic-volume", type=int, default=50_000_000)
    avail = gen.add_mutually_exclusive_group()
    avail.add_argument("--trace", default=None, help="failure trace CSV")
    avail.add_argument("--synthetic-availability", default="uniform:0.0:0.3",
                       help="'constant:F' or 'uniform:LO:HI' failure probabilities")
    gen.add_argument("--capacity-policy", default="slack:1.5",
                     help="'slack:FACTOR' or 'unbounded'")
    gen.add_argument("--caps", type=_parse_caps, default=(1, 2, 3, 4, 5),
                     help="cap list the capacity policy should budget for, e.g. 1..5")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    def add_solver_flags(p):
        p.add_argument("--topology", required=True)
        p.add_argument("--scenario", required=True)
        p.add_argument("--availability-scope", choices=heuristics.SCOPES,
                       default="focal_object")
        p.add_argument("--availability-semantics", choices=costs.SEMANTICS,
                       default="corrected")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run one planner")
    add_solver_flags(solve)
    solve.add_argument("--alg", choices=heuristics.ALGORITHMS, required=True)
    solve.add_argument("--cap", type=_parse_cap, default=None,
                       help="max replicas per object, integer or 'unlimited'")
    solve.add_argument("--x-old", default=None,
                       help="starting placement JSON (default: primary copies only)")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run planners across replica caps")
    add_solver_flags(sweep)
    sweep.add_argument("--algs", type=_parse_algs, default=("aagg", "gg"),
                       help="comma-separated planner list")
    sweep.add_argument("--caps", type=_parse_caps, default=(1, 2, 3, 4, 5))
    sweep.add_argument("--gnuplot", action="store_true",
                       help="also write a gnuplot script for the results")
    sweep.set_defaults(func=cmd_sweep)

    inspect = sub.add_parser("inspect", help="validate and summarize a placement")
    inspect.add_argument("--placement", required=True)
    inspect.add_argument("--topology", required=True)
    inspect.add_argument("--scenario", required=True)
    inspect.add_argument("--availability-semantics", choices=costs.SEMANTICS,
                         default="corrected")
    inspect.add_argument("--out", default=None)
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ReplicaPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
