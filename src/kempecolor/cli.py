"""Command-line front end.

Exit statuses: 0 success, 1 heuristic failure / rejected coloring,
2 usage or parameter error (``GraphError``, ``ParameterError``), 3 parse
or I/O error (``ParseError``, ``OSError``), 70 internal fault
(``RuntimeError``, ``MemoryError``).  The commands raise; ``main`` alone
turns an error into its status and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys

from .bench import run_sweep, write_csv
from .driver import HeuristicParams, ParameterError, apply_heuristic
from .generators import odd_graph
from .graph import Graph, GraphError, ParseError, read_coloring, read_edge_list, write_coloring
from .verifier import check_edge_coloring

EXIT_OK = 0
EXIT_HEURISTIC_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-R", "--repetition-limit", type=int,
                   default=HeuristicParams.repetition_limit)
    p.add_argument("-L", "--iteration-limit", type=int,
                   default=HeuristicParams.iteration_limit)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precolor", choices=("greedy", "random"),
                   default=HeuristicParams.precolor_mode)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kempecolor",
        description="Edge-coloring by Kempe-chain conflict displacement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a graph read from an edge-list file")
    p.add_argument("input", help="edge-list file: 'n m' header, then 'u v' lines")
    p.add_argument("-D", "--colors", type=int, default=None,
                   help="number of colors (default: max degree)")
    _common_flags(p)
    p.add_argument("-o", "--output", default=None, help="coloring output file")

    p = sub.add_parser("bench", help="benchmark sweep over random regular graphs")
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 3,7,11,15")
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument("--instances", type=int, default=30)
    _common_flags(p)
    p.add_argument("--csv", required=True, help="CSV output path")

    p = sub.add_parser("oddgraph", help="color the k-th odd graph")
    p.add_argument("k", type=int)
    p.add_argument("-D", "--colors", type=int, default=None,
                   help="number of colors (default: k)")
    _common_flags(p)

    p = sub.add_parser("verify", help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("-D", "--colors", type=int, required=True)

    return parser


def _params(args, colors: int) -> HeuristicParams:
    return HeuristicParams(
        colors=colors,
        repetition_limit=args.repetition_limit,
        iteration_limit=args.iteration_limit,
        seed=args.seed,
        precolor_mode=args.precolor,
    )


def _run_and_report(graph: Graph, args, colors: int, *header: str) -> int:
    """Run the heuristic, print the header lines and the report; return the exit status."""
    report = apply_heuristic(graph, _params(args, colors))
    for line in header:
        print(line)
    print(f"vertices: {graph.n}")
    print(f"edges: {graph.m}")
    print(f"colors: {colors}")
    print(f"seed: {report.seed}")
    print(f"success: {str(report.success).lower()}")
    print(f"passes: {report.passes}")
    print(f"wall_time_s: {report.wall_time:.6f}")
    print(f"final_conflictivity: {report.final_conflictivity}")
    return EXIT_OK if report.success else EXIT_HEURISTIC_FAILURE


def cmd_color(args) -> int:
    graph = read_edge_list(args.input)
    colors = args.colors if args.colors is not None else graph.max_degree()
    status = _run_and_report(graph, args, colors)
    if status == EXIT_OK and args.output:
        write_coloring(graph, args.output)
    return status


def cmd_bench(args) -> int:
    try:
        degrees = [int(x) for x in args.degrees.split(",") if x]
        sizes = [int(x) for x in args.sizes.split(",") if x]
    except ValueError:
        raise ParameterError("--degrees and --sizes must be comma-separated integers") from None
    # each instance sets its own colors and seed; the base seed defaults to 0
    records = run_sweep(degrees, sizes, args.instances, args.seed or 0, _params(args, colors=0))
    write_csv(args.csv, records)
    print(f"wrote {len(records)} run rows to {args.csv}")
    return EXIT_OK


def cmd_oddgraph(args) -> int:
    graph = odd_graph(args.k)
    colors = args.colors if args.colors is not None else args.k
    return _run_and_report(graph, args, colors, f"k: {args.k}")


def cmd_verify(args) -> int:
    graph = read_edge_list(args.graph)
    triples = read_coloring(args.coloring)
    n, adj, colors = graph.n, graph.adj, graph.colors
    for u, v, c in triples:
        idx = adj[u].get(v) if 0 <= u < n else None
        if idx is None:
            raise GraphError(f"coloring refers to nonexistent edge ({u}, {v})")
        # the graph was just read, so a set color means a second line for the edge
        if colors[idx] is not None:
            raise GraphError(f"edge ({u}, {v}) colored twice")
        colors[idx] = c
    if len(triples) != graph.m:
        raise GraphError(f"coloring covers {len(triples)} of {graph.m} edges")
    if check_edge_coloring(graph, args.colors):
        print("coloring: valid")
        return EXIT_OK
    print("coloring: invalid")
    return EXIT_HEURISTIC_FAILURE


def main(argv=None) -> int:
    """Run one command; print any parse, I/O, usage or parameter error, or
    internal fault, as one line."""
    args = build_parser().parse_args(argv)
    handler = {
        "color": cmd_color,
        "bench": cmd_bench,
        "oddgraph": cmd_oddgraph,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GraphError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:
        detail = f": {exc}" if str(exc) else ""  # a MemoryError often has none
        print(f"error: internal fault: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
