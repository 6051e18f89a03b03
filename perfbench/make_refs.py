"""Write the stored references in ``refs/`` after checking them.

    python3 perfbench/make_refs.py

Runs every operation once (the sampling workload at DEFAULT_SEED) and
refuses to write anything unless the outputs agree with numbers that do
not come from satlab:

* n = 7 searches and the verify sweep: every graph of the networkx atlas
  on 7 vertices (4..7 for verify), tested for F-saturation with networkx;
* n = 8: sat(8, K_{1,2}, K_3) = C(7,2) = 21 with the star ``G???F{`` as the
  only minimizer (README), and sat(n, C_4) = floor((3n-5)/2) (Ollmann 1972)
  with a C_4-saturated minimizer;
* sat(n, K_{1,2}, K_s) = (s-2)C(n-1,2) + (n-s+2)C(s-2,2) for s >= 4, with
  K_{s-2} joined to an independent set as the minimizer;
* sampling: the independent replay and networkx checks of ``workloads``.
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import sys
import tempfile
from math import comb
from pathlib import Path

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

import run
import workloads
from workloads import DEFAULT_SEED, REFS


def expect(cond: bool, what) -> None:
    if not cond:
        raise SystemExit(f"reference check failed: {what}")


def _contains(g: nx.Graph, f: nx.Graph) -> bool:
    return GraphMatcher(g, f).subgraph_is_monomorphic()


def _saturated(g: nx.Graph, f: nx.Graph) -> bool:
    if _contains(g, f):
        return False
    for u, v in nx.non_edges(g):
        g.add_edge(u, v)
        hit = _contains(g, f)
        g.remove_edge(u, v)
        if not hit:
            return False
    return True


def _pattern(token: str) -> nx.Graph:
    parts = token.split("_")
    if token.startswith("c_"):
        return nx.cycle_graph(int(parts[1]))
    if len(parts) == 3:
        return nx.complete_bipartite_graph(int(parts[1]), int(parts[2]))
    return nx.complete_graph(int(parts[1]))


def _h_count(g: nx.Graph, h: str) -> int:
    if h == "k_2":
        return g.number_of_edges()
    expect(h == "k_1_2", h)
    return sum(comb(d, 2) for _, d in g.degree())


def _atlas_saturated(n: int, f: str) -> list[nx.Graph]:
    fg = _pattern(f)
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n and _saturated(g, fg)]


def _same_classes(forms: list[str], graphs: list[nx.Graph]) -> bool:
    decoded = [nx.from_graph6_bytes(x.encode("ascii")) for x in forms]
    return len(decoded) == len(graphs) and all(
        sum(nx.is_isomorphic(d, g) for g in graphs) == 1 for d in decoded)


def check_search(stdout: bytes, n: int, h: str, f: str) -> None:
    rec = json.loads(stdout)
    expect((rec["n"], rec["h"], rec["f"], rec["truncated"]) == (n, h, f, False), rec)
    if n <= 7:
        sat = _atlas_saturated(n, f)
        counts = [_h_count(g, h) for g in sat]
        best = min(counts)
        expect(rec["searched"] == len(sat), (rec, len(sat)))
        expect(rec["min_count"] == best, (rec, best))
        expect(_same_classes(rec["extremal"], [g for g, c in zip(sat, counts) if c == best]), rec)
    if f.startswith("k_") and len(f.split("_")) == 2 and h == "k_1_2":
        s = int(f[2:])
        if s >= 4:
            best = (s - 2) * comb(n - 1, 2) + (n - s + 2) * comb(s - 2, 2)
            expect(rec["min_count"] == best, (rec, best))
            ehm = nx.disjoint_union(nx.complete_graph(s - 2), nx.empty_graph(n - s + 2))
            ehm.add_edges_from((a, b) for a in range(s - 2) for b in range(s - 2, n))
            expect(_same_classes(rec["extremal"], [ehm]), rec)
        else:
            expect((n, s) == (8, 3), (n, s))
            expect(rec["min_count"] == 21 and rec["extremal"] == ["G???F{"], rec)
            expect(nx.is_isomorphic(nx.from_graph6_bytes(b"G???F{"), nx.star_graph(7)), "star")
    if f == "c_4":
        expect(rec["min_count"] == (3 * n - 5) // 2, rec)
        for form in rec["extremal"]:
            g = nx.from_graph6_bytes(form.encode("ascii"))
            expect(_saturated(g, nx.cycle_graph(4)), (form, "not C_4-saturated"))
            expect(g.number_of_edges() == rec["min_count"], (form, rec))


def check_verify(stdout: bytes, code: int, n_max: int, s: int) -> None:
    rows = list(csv.reader(stdout.decode("ascii").splitlines()[1:]))
    header, rows = rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]
    expect(header == ["name", "n", "s", "t", "lhs", "rhs", "holds", "equality"], header)
    violated = [r for r in rows if r["holds"] == "False" and r["name"] != "kr_min_small_n"]
    expect(code == 1 and violated, "verify must exit 1 on the known prop21 violations")
    expect(all(r["name"] == "star_floor" for r in violated), violated)
    for n in range(s, n_max + 1):
        sat = _atlas_saturated(n, f"k_{s}")
        mine = {r["name"]: r for r in rows if r["n"] == str(n)}
        kkko = sum(r["name"] == "kkko" and r["n"] == str(n) for r in rows)
        expect(kkko == len(sat), (n, kkko, len(sat)))
        edges = min(g.number_of_edges() for g in sat)
        expect(int(mine["ehm_edges"]["lhs"]) == edges, (mine["ehm_edges"], edges))
        cherries = min(_h_count(g, "k_1_2") for g in sat)
        expect(int(mine["k12_min"]["lhs"]) == cherries, (mine["k12_min"], cherries))


def main() -> int:
    run.ROOT.joinpath(".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_work"))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        workloads.prepare("sampling", DEFAULT_SEED, inputs)
        runner = run.Runner(work)
        codes, outputs = {}, []
        for name, make_ops in workloads.WORKLOADS.items():
            for op in make_ops(DEFAULT_SEED, inputs):
                r = runner.operation(op, traced=False)
                print(f"{op.id}: exit {r['code']}, {r['wall']:.2f} s", file=sys.stderr)
                args = dict(zip(op.argv[2::2], op.argv[3::2]))
                if op.role == "search":
                    expect(r["code"] == 0, (op.id, r["code"]))
                    check_search(r["stdout"], int(args["--n"]), args["--h"], args["--f"])
                elif op.role == "verify":
                    check_verify(r["stdout"], r["code"], int(args["--n-max"]), int(args["--s"]))
                else:
                    expect(r["code"] == 0, (op.id, r["code"]))
                    err = workloads.properties(op, r["stdout"].decode("ascii"), r["files"], inputs)
                    expect(err is None, f"{op.id}: {err}")
                codes[op.id] = r["code"]
                outputs.append((op, r))
        seeded = REFS / f"seed{DEFAULT_SEED}"
        seeded.mkdir(parents=True, exist_ok=True)
        for op, r in outputs:
            base = REFS if op.role in ("search", "verify") else seeded
            (base / f"{op.id}.stdout").write_bytes(r["stdout"])
            for name, data in r["files"].items():
                (base / f"{op.id}.{name}.gz").write_bytes(gzip.compress(data, mtime=0))
        (REFS / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"references written to {REFS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
