"""Unit tests for :class:`repro.core.combine.IncrementalKraft`.

The accountant's contract: after ``seal()`` the recorded trail is a
monotone nonincreasing sequence of *sound* upper bounds (every entry
>= the final exact bound), ending exactly at the value passed to
``finalize``.
"""

import pytest

from repro import obs
from repro.core.combine import IncrementalKraft
from repro.graph.flowgraph import INF


class TestAccounting:
    def test_bound_is_min_of_structural_cuts(self):
        kraft = IncrementalKraft()
        kraft.admit(8, 3)
        kraft.admit(2, 100)
        assert kraft.bits == min(8 + 2, 3 + 100)

    def test_multiplicity_scales_caps(self):
        kraft = IncrementalKraft()
        kraft.admit(8, 16, multiplicity=2)
        kraft.admit(3, 5)
        assert kraft.bits == min(8 * 2 + 3, 16 * 2 + 5)

    def test_infinite_caps_saturate(self):
        kraft = IncrementalKraft()
        kraft.admit(INF, 4)
        kraft.admit(5, INF)
        assert kraft.bits == INF  # src side INF, sink side INF
        kraft2 = IncrementalKraft()
        kraft2.admit(INF, 4)
        kraft2.admit(5, 6)
        assert kraft2.bits == 10  # sink side still finite

    def test_admit_after_seal_rejected(self):
        kraft = IncrementalKraft()
        kraft.admit(1, 1)
        kraft.seal()
        with pytest.raises(ValueError):
            kraft.admit(1, 1)

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(ValueError):
            IncrementalKraft().admit(1, 1, multiplicity=0)


class TestTrail:
    def build(self):
        kraft = IncrementalKraft()
        gids = [kraft.admit(8, 8, multiplicity=2), kraft.admit(3, 3),
                kraft.admit(5, 5)]
        kraft.seal()
        return kraft, gids

    def test_trail_monotone_and_sound(self):
        kraft, gids = self.build()
        assert kraft.trail == [24]
        merged = kraft.merge(gids[:2], 15, 15)
        kraft.merge([merged, gids[2]], 11, 11)
        final = kraft.finalize(7)
        assert final == 7
        assert kraft.trail == [24, 20, 11, 7]
        for prefix, nxt in zip(kraft.trail, kraft.trail[1:]):
            assert prefix >= nxt
        assert all(entry >= 7 for entry in kraft.trail)
        assert kraft.bits == 7

    def test_drop_removes_group_from_account(self):
        kraft, gids = self.build()
        kraft.drop(gids[0])
        assert kraft.bits == 3 + 5
        assert kraft.trail == [24, 8]
        assert kraft.groups_live == 2

    def test_no_trail_before_seal(self):
        kraft = IncrementalKraft()
        gid_a = kraft.admit(8, 8)
        gid_b = kraft.admit(4, 4)
        kraft.merge([gid_a, gid_b], 10, 10)
        assert kraft.trail == []

    def test_updates_counted(self):
        obs.enable()
        try:
            kraft, gids = self.build()
            merged = kraft.merge(gids[:2], 15, 15)
            kraft.merge([merged, gids[2]], 11, 11)
            kraft.finalize(7)
            snapshot = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert kraft.updates == 4
        assert snapshot["combine.kraft_updates"] == 4


class TestCheckpoint:
    def state(self):
        kraft = IncrementalKraft()
        gids = [kraft.admit(8, 8), kraft.admit(3, 5)]
        kraft.seal()
        kraft.merge(gids, 9, 11)
        return kraft.to_dict()

    def test_round_trip(self):
        doc = self.state()
        restored = IncrementalKraft.from_dict(doc)
        assert restored.to_dict() == doc
        assert restored.bits == 9

    @pytest.mark.parametrize("field,value", [
        ("groups", [[0, -5, -7]]),
        ("groups", [[0, 5, -7]]),
        ("groups", [[-1, 5, 7]]),
        ("final", -7),
        ("next_id", -1),
        ("trail", [11, -2]),
        ("updates", -3),
        ("sealed", "no"),
        ("sealed", 1),
    ])
    def test_corrupt_state_rejected(self, field, value):
        # A negative capacity would otherwise read as a negative bound,
        # and a truthy non-boolean as a sealed corpus.
        doc = dict(self.state(), **{field: value})
        if field == "groups":
            doc["next_id"] = 1
        with pytest.raises(ValueError):
            IncrementalKraft.from_dict(doc)
