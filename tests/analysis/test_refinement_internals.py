"""Direct tests of §5.1 refinement internals and engine options."""

from repro.analysis.accesses import AccessKind, AccessSet
from repro.analysis.conflicts import ConflictSet
from repro.analysis.cycle.spmd import BackPathEngine
from repro.analysis.sync.precedence import PrecedenceRelation
from repro.ir.dominators import DominatorTree
from repro.ir.symrefine import refine_index_metadata
from tests.analysis.general_backpath import GeneralBackPathFinder
from tests.helpers import FIGURE_1, FIGURE_5, inlined


def build(source):
    module = inlined(source)
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    return module.main, accesses, ConflictSet(accesses)


def find(accesses, kind, var):
    return next(
        a for a in accesses if a.kind is kind and a.var == var
    )


class TestDominatorRefinementRule:
    """Step 4 in isolation: [a1,b1],[b2,a2] in D1, [b1,b2] in R,
    with the required dominations, must yield [a1,a2] in R."""

    def test_figure5_anchor_chain(self):
        main, accesses, conflicts = build(FIGURE_5)
        dominators = DominatorTree(main)
        w_x = find(accesses, AccessKind.WRITE, "X")
        post = find(accesses, AccessKind.POST, "F")
        wait = find(accesses, AccessKind.WAIT, "F")
        r_x = find(accesses, AccessKind.READ, "X")

        d1 = {
            (w_x.index, post.index),  # a1 -> b1 (a1 dominates b1)
            (wait.index, r_x.index),  # b2 -> a2 (b2 dominates a2)
        }
        relation = PrecedenceRelation(accesses)
        relation.add(post, wait)  # b1 R b2
        relation.transitive_close()
        added = relation.refine_with_dominators(d1, dominators)
        assert added >= 1
        assert relation.has(w_x, r_x)

    def test_rule_requires_domination(self):
        """Without 'a1 dominates b1' the edge must not be derived."""
        source = """
        shared int X;
        shared flag_t F;
        void main() {
          int y;
          if (MYPROC == 0) {
            if (PROCS > 2) { X = 1; }
            post(F);
          } else {
            wait(F);
            y = X;
          }
        }
        """
        main, accesses, _conflicts = build(source)
        dominators = DominatorTree(main)
        w_x = find(accesses, AccessKind.WRITE, "X")
        post = find(accesses, AccessKind.POST, "F")
        wait = find(accesses, AccessKind.WAIT, "F")
        r_x = find(accesses, AccessKind.READ, "X")
        # The write does NOT dominate the post (conditional), so even
        # with the D1 anchors present the rule must not fire from it...
        d1 = {(w_x.index, post.index), (wait.index, r_x.index)}
        relation = PrecedenceRelation(accesses)
        relation.add(post, wait)
        relation.transitive_close()
        relation.refine_with_dominators(d1, dominators)
        # ...but domination is about instances lining up: here the
        # *write* side fails it.
        assert not dominators.instr_dominates(w_x.uid, post.uid)
        assert not relation.has(w_x, r_x)


class TestEngineOptions:
    def test_pair_filter_restricts_universe(self):
        _main, accesses, conflicts = build(FIGURE_5)
        engine = BackPathEngine(accesses, conflicts)
        full = engine.delay_set()
        sync_only = engine.delay_set(
            pair_filter=lambda u, v: u.is_sync or v.is_sync
        )
        assert sync_only < full
        access_list = list(accesses)
        for u, v in sync_only:
            assert access_list[u].is_sync or access_list[v].is_sync

    def test_excluded_for_callback_applies(self):
        _main, accesses, conflicts = build(FIGURE_1)
        engine = BackPathEngine(accesses, conflicts)
        everything = (1 << len(accesses)) - 1

        def exclude_all(u, v):
            return everything & ~(1 << u.index) & ~(1 << v.index)

        survivors = engine.delay_set(excluded_for=exclude_all)
        # The cross-variable figure-eight needs the other variable's
        # accesses as intermediates: excluded away, those delays die.
        # Same-variable pairs survive — their chains bounce between
        # copies of the endpoints alone, which exclusion never removes.
        access_list = list(accesses)
        full = engine.delay_set()
        assert survivors < full
        for u, v in survivors:
            assert access_list[u].var == access_list[v].var

    def test_general_finder_needs_enough_processors(self):
        """With one usable copy the oracle cannot route any back-path;
        with two it finds them all (Figure 1 needs one intermediate)."""
        _main, accesses, conflicts = build(FIGURE_1)
        starved = GeneralBackPathFinder(accesses, conflicts, num_procs=1)
        assert starved.delay_set() == set()
        enough = GeneralBackPathFinder(accesses, conflicts, num_procs=2)
        fast = BackPathEngine(accesses, conflicts)
        assert enough.delay_set() == fast.delay_set()


class TestPrecedenceEdgeCases:
    def test_add_pairs_skips_self(self):
        _main, accesses, _c = build(FIGURE_1)
        relation = PrecedenceRelation(accesses)
        relation.add_pairs([(0, 0), (0, 1)])
        access_list = list(accesses)
        assert not relation.has(access_list[0], access_list[0])
        assert relation.has(access_list[0], access_list[1])

    def test_pairs_listing_roundtrip(self):
        _main, accesses, _c = build(FIGURE_1)
        relation = PrecedenceRelation(accesses)
        relation.add_pairs([(0, 1), (1, 2), (2, 3)])
        relation.transitive_close()
        pairs = set(relation.pairs())
        assert (0, 3) in pairs
        assert relation.pair_count() == len(pairs)
