"""Tests for the disjoint-set structure."""

import pytest
from hypothesis import given, strategies as st

from .collapse_oracle import UnionFind


class TestBasics:
    def test_singletons_distinct(self):
        uf = UnionFind()
        assert uf.find("a") == "a"
        assert uf.find("b") == "b"
        assert not uf.same("a", "b")

    def test_union_merges(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.same("a", "b")

    def test_union_is_transitive(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.same("a", "c")

    def test_union_returns_root(self):
        uf = UnionFind()
        root = uf.union(1, 2)
        assert uf.find(1) == root
        assert uf.find(2) == root

    def test_len_counts_mentioned_elements(self):
        uf = UnionFind()
        uf.find("x")
        uf.union("y", "z")
        assert len(uf) == 3

    def test_set_count(self):
        uf = UnionFind()
        for key in range(6):
            uf.find(key)
        assert uf.set_count == 6
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(0, 3)
        assert uf.set_count == 3

    def test_union_same_set_is_noop(self):
        uf = UnionFind()
        uf.union("a", "b")
        count = uf.set_count
        uf.union("a", "b")
        assert uf.set_count == count

    def test_heterogeneous_keys(self):
        uf = UnionFind()
        uf.union(("src", "file.c:3"), 17)
        assert uf.same(17, ("src", "file.c:3"))

    def test_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.find("c")
        groups = uf.groups()
        members = {frozenset(v) for v in groups.values()}
        assert frozenset(["a", "b"]) in members
        assert frozenset(["c"]) in members


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    max_size=80))
    def test_matches_naive_partition(self, pairs):
        uf = UnionFind()
        naive = {}

        def naive_find(x):
            while naive.setdefault(x, x) != x:
                x = naive[x]
            return x

        for a, b in pairs:
            uf.union(a, b)
            naive[naive_find(a)] = naive_find(b)
        for a, b in pairs:
            assert uf.same(a, b) == (naive_find(a) == naive_find(b))

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    max_size=50))
    def test_set_count_consistent_with_groups(self, pairs):
        uf = UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        assert uf.set_count == len(uf.groups())
