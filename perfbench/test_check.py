"""The checker accepts the program's real outputs and rejects corrupted ones.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import tempfile
import unittest

import check
import run
import workloads
from workloads import Request

# three support parts and two nonsingular parts; nullity 4
EDGES = [(1, 2), (1, 3), (1, 13), (13, 14), (13, 9), (14, 4), (4, 6), (4, 7), (7, 5),
         (5, 8), (9, 10), (9, 11), (9, 12), (9, 16), (16, 15), (16, 17), (17, 18)]


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=run.OUT)
        st = run.import_strees()
        path = os.path.join(cls.tmp, "t.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{u} {v}\n" for u, v in EDGES))
        cls.tree = check.Tree({x for e in EDGES for x in e}, EDGES)
        cls.req = {cmd: Request(cmd, cls.tree.n, tree=cls.tree, argv=[cmd, path, "--format", "json"])
                   for cmd in workloads.TREE_COMMANDS}
        base = st.generators.random_tree(5, 3)
        ks = [2, 3, 2, 4, 2]
        cls.req["stellare-bases"] = Request(
            "stellare-bases", 0, tree=check.Tree(base.vertices, base.edges()), ks=ks,
            call=lambda: st.ops.stellare_bases(base, ks))
        pieces = [st.ops.stellare(st.generators.random_tree(3, s), [2, 3, 2]) for s in (1, 2, 3)]
        plan = st.ops.CoalescencePlan(tuple((p.tree, p.pendants_of(p.tree.vertices[0])[0])
                                            for p in pieces))
        cls.req["coalescence"] = Request(
            "coalescence", 0, parts=[(check.Tree(p.vertices, p.edges()), a) for p, a in plan.parts],
            call=lambda: st.ops.coalescence_invariants(plan))
        cls.req["sweep"] = Request("sweep", 0, k=4,
                                   argv=["verify", "--exhaustive-n", "4", "--format", "json"])
        cls.out = {}
        for kind, req in cls.req.items():
            _, text, err = run.run_request(st, req, run.REQUEST_CAP_S)
            assert err is None, err
            cls.out[kind] = json.loads(text)
        cls.null = check.check_null_basis(cls.tree, cls.out["null-basis"])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def accept(self, kind, out):
        return check.check_request(self.req[kind], json.dumps(out), self.null)

    def reject(self, kind, out, message):
        with self.assertRaisesRegex(check.CheckError, message):
            self.accept(kind, out)

    def corrupt(self, kind):
        return copy.deepcopy(self.out[kind])

    def test_real_outputs_pass(self):
        self.assertEqual(len(self.null), 4)
        for kind in self.out:
            self.accept(kind, self.out[kind])

    def test_flipped_sign(self):
        out = self.corrupt("null-basis")
        entry = next(vec for vec in out["vectors"] if len(vec) > 1)[0]
        entry["coeff"] = -entry["coeff"]
        self.reject("null-basis", out, "A.x != 0")

    def test_dropped_vector(self):
        for kind, field in (("null-basis", "vectors"), ("range-basis", "vectors"),
                            ("stellare-bases", "null")):
            out = self.corrupt(kind)
            out[field].pop()
            if kind == "range-basis":
                out["roles"].pop()
            self.reject(kind, out, "has .* vectors")

    def test_duplicated_vector(self):
        for kind, field in (("null-basis", "vectors"), ("range-basis", "vectors"),
                            ("stellare-bases", "range")):
            out = self.corrupt(kind)
            out[field][1] = out[field][0]
            self.reject(kind, out, "dependent")

    def test_wrong_support_vertex(self):
        out = self.corrupt("decompose")
        outside = min(set(self.tree.vertices) - set(out["support"]))
        out["support"][0] = outside
        self.reject("decompose", out, "wrong support")
        out = self.corrupt("coalescence")
        out["support"][-1] += 1
        self.reject("coalescence", out, "support")

    def test_wrong_count(self):
        for kind, key in (("invariants", "max_matching_count"), ("invariants", "nullity"),
                          ("coalescence", "nullity"), ("coalescence", "max_matching_count")):
            out = self.corrupt(kind)
            out[key] += 1
            self.reject(kind, out, key)
        out = self.corrupt("sweep")
        out["checks"][0]["detail"] = "0 of 20 trees failed"
        self.reject("sweep", out, "21 trees")

    def test_rank_mod_p(self):
        self.assertEqual(check.rank_mod_p([{1: 1, 2: -1}, {2: 1, 3: -1}, {1: 1, 3: -1}]), 2)
        self.assertEqual(check.rank_mod_p([{1: 1, 2: 1}, {2: 1, 3: 1}, {1: 1, 3: 1}]), 3)

    def test_support_matches_brute_force(self):
        # nu(T - v) computed directly for every v, against the rerooting DP
        nu = self.tree.matching_number()
        for v in self.tree.vertices:
            rest = [e for e in EDGES if v not in e]
            sub = sum(check.Tree(comp, [e for e in rest if e[0] in comp]).matching_number()
                      for comp in _components(set(self.tree.vertices) - {v}, rest))
            self.assertEqual(sub == nu, v in self.tree.support(), v)


def _components(vertices, edges):
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, comps = set(), []
    for v in vertices:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


if __name__ == "__main__":
    unittest.main()
