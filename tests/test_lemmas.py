"""Structure validation for 2-colorings of [1, 3m-2]."""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
from collections import Counter

import pytest

import diam_ramsey.lemmas as lemmas_mod
import diam_ramsey.search as search_mod
from diam_ramsey import (
    Coloring,
    ExtremalB1,
    IntSet,
    LemmaViolationError,
    check_lemma22,
    classify_lemma21,
    find_extremal_b1,
    format_run_string,
    parse_run_string,
    sweep_lemmas,
)
from diam_ramsey.checker import _least_set

# Case histograms over all 2^(3m-2) colorings, frozen from an independent
# prototype sweep. First-match tags in the order (i), (ii), (iii).
EXPECTED_CASES = {
    2: {"no_b1": 2, "i": 2, "ii": 8, "iii": 4},
    3: {"no_b1": 4, "i": 24, "ii": 62, "iii": 38},
    4: {"no_b1": 8, "i": 206, "ii": 474, "iii": 336},
    5: {"no_b1": 16, "i": 1652, "ii": 3642, "iii": 2882},
}


# ======================================================================
# extremal big set
# ======================================================================

def test_extremal_b1_basic() -> None:
    ext = find_extremal_b1(parse_run_string("0101", 2), 2)
    # both {1,3} (color 0) and {2,4} (color 1) have diameter 2; the
    # smaller maximum wins
    assert ext.b1 == IntSet([1, 3])
    assert ext.color_c1 == 0
    assert (ext.beta, ext.alpha) == (1, 0)


def test_extremal_b1_prefers_smaller_diameter() -> None:
    ext = find_extremal_b1(parse_run_string("1001001", 2), 3)
    # color-0 3-sets ending at 6: {2,3,6}? positions of 0 are 2,3,5,6
    assert ext.b1 == IntSet([2, 3, 6])
    assert ext.color_c1 == 0
    assert (ext.beta, ext.alpha) == (1, 0)


def test_extremal_b1_absent() -> None:
    # every color class has diameter at most m-1
    assert find_extremal_b1(parse_run_string("0011", 2), 2) is None


def test_extremal_b1_against_bruteforce() -> None:
    """(max, diam, color) is the least over monochromatic m-sets with
    diam >= 2m-2, enumerated from the definition on every coloring."""
    for m in (2, 3, 4):
        n = 3 * m - 2
        for bits in range(1 << n):
            c = Coloring([(bits >> x) & 1 for x in range(n)], 2)
            ref = min(
                (
                    (b[-1], b[-1] - b[0], c.color_at(b[0]))
                    for b in itertools.combinations(range(1, n + 1), m)
                    if b[-1] - b[0] >= 2 * m - 2
                    and len({c.color_at(x) for x in b}) == 1
                ),
                default=None,
            )
            ext = find_extremal_b1(c, m)
            got = (
                None
                if ext is None
                else (ext.b1.max, ext.b1.max - ext.b1.min, ext.color_c1)
            )
            assert got == ref, (format_run_string(c), m)


def test_extremal_b1_validation() -> None:
    with pytest.raises(ValueError):
        find_extremal_b1(parse_run_string("0101", 2), 3)  # wrong length
    with pytest.raises(ValueError):
        find_extremal_b1(Coloring([0, 1, 2, 0], 3), 2)  # not a 2-coloring
    with pytest.raises(ValueError):
        find_extremal_b1(parse_run_string("0", 2), 1)


# ======================================================================
# case classification
# ======================================================================

def test_classify_case_ii_all_ones() -> None:
    c = parse_run_string("1111", 2)
    ext = find_extremal_b1(c, 2)
    assert ext.b1 == IntSet([1, 3])
    assert (ext.beta, ext.alpha) == (1, 0)
    case = classify_lemma21(c, 2)
    assert case.case_tag == "ii"
    assert case.mask == ("ii", "iii")
    assert case.h_strings == (("H2", "1", (2, 2)),)


def test_classify_case_i_substrings() -> None:
    c = parse_run_string("1101001", 2)
    ext = find_extremal_b1(c, 3)
    assert ext.b1 == IntSet([2, 4, 7])
    assert ext.color_c1 == 1
    assert (ext.beta, ext.alpha) == (0, 1)
    case = classify_lemma21(c, 3)
    assert case.case_tag == "i"
    assert case.mask == ("i",)
    assert (case.nu, case.mu) == (0, 0)
    # window reads 11 H0 0 H1 1 with H0 = 01, H1 = 0
    assert case.h_strings == (("H0", "01", (3, 4)), ("H1", "0", (6, 6)))


def test_classify_case_iii_has_no_substrings() -> None:
    case = classify_lemma21(parse_run_string("1101", 2), 2)
    assert case.case_tag == "iii"
    assert case.mask == ("iii",)
    assert case.h_strings == ()
    assert (case.nu, case.mu) == (0, 0)


def test_classify_h_strings_rebuild_every_frame() -> None:
    """On every coloring with a big set, the reported substrings sit where
    they say, carry the lemma's one-counts, and together with the fixed
    runs of the tagged case spell out the whole window R."""
    for m in (2, 3, 4, 5):
        n = 3 * m - 2
        for bits in range(1 << n):
            c = Coloring([(bits >> x) & 1 for x in range(n)], 2)
            ext = find_extremal_b1(c, m)
            if ext is None:
                continue
            a, b, k = ext.alpha, ext.beta, ext.color_c1
            frame = "".join(
                "1" if c.color_at(x) == k else "0" for x in range(1, n - b + 1)
            )
            case = classify_lemma21(c, m)
            where = (format_run_string(c), m, case)
            for _name, digits, (lo, hi) in case.h_strings:
                assert hi - lo + 1 == len(digits), where
                assert frame[lo - 1 : hi] == digits, where
            h = {name: digits for name, digits, _span in case.h_strings}
            if case.case_tag == "i":
                nu, mu = case.nu, case.mu
                rebuilt = (
                    "1" * (m - 1 - b - nu) + h["H0"] + "0" + h["H1"]
                    + "1" * (1 + nu)
                )
                assert h["H0"].count("1") == m - 1 - a - mu, where
                assert h["H1"].count("1") == mu, where
            elif case.case_tag == "ii":
                rebuilt = "0" * (m - a - b - 1) + "1" + h["H2"] + "1" * (m - b)
                if a > 0:
                    assert h["H2"].count("1") == b - 1, where
            else:
                assert case.h_strings == (), where
                continue
            assert rebuilt == frame, where


# (case_tag, mask, mu, nu) over every coloring with a big set. The mask
# decides lemma 2.2's bounds, so it is pinned along with the tags.
EXPECTED_MATCHES = {
    2: {("i", ("i",), 0, 0): 2, ("ii", ("ii",), 0, 0): 4,
        ("ii", ("ii", "iii"), 0, 0): 4, ("iii", ("iii",), 0, 0): 4},
    3: {("i", ("i",), 0, 0): 18, ("i", ("i",), 0, 1): 2,
        ("i", ("i",), 1, 0): 4, ("ii", ("ii",), 0, 0): 30,
        ("ii", ("ii", "iii"), 0, 0): 32, ("iii", ("iii",), 0, 0): 38},
    4: {("i", ("i",), 0, 0): 134, ("i", ("i",), 0, 1): 14,
        ("i", ("i",), 0, 2): 2, ("i", ("i",), 1, 0): 40,
        ("i", ("i",), 1, 1): 8, ("i", ("i",), 2, 0): 8,
        ("ii", ("ii",), 0, 0): 218, ("ii", ("ii", "iii"), 0, 0): 256,
        ("iii", ("iii",), 0, 0): 336},
    5: {("i", ("i",), 0, 0): 970, ("i", ("i",), 0, 1): 98,
        ("i", ("i",), 0, 2): 18, ("i", ("i",), 0, 3): 2,
        ("i", ("i",), 1, 0): 332, ("i", ("i",), 1, 1): 76,
        ("i", ("i",), 1, 2): 12, ("i", ("i",), 2, 0): 104,
        ("i", ("i",), 2, 1): 24, ("i", ("i",), 3, 0): 16,
        ("ii", ("ii",), 0, 0): 1594, ("ii", ("ii", "iii"), 0, 0): 2048,
        ("iii", ("iii",), 0, 0): 2882},
}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_classify_matches_frozen_exhaustive(m: int) -> None:
    tally: Counter = Counter()
    for digits in itertools.product((0, 1), repeat=3 * m - 2):
        case = classify_lemma21(Coloring(digits, 2), m)
        if case is not None:
            tally[(case.case_tag, case.mask, case.mu, case.nu)] += 1
    assert tally == EXPECTED_MATCHES[m]


def _disable_matchers(monkeypatch) -> None:
    """Make every lemma 2.1 matcher miss, so each big set is a violation."""
    monkeypatch.setattr(lemmas_mod, "_match_case_i", lambda *a: None)
    monkeypatch.setattr(lemmas_mod, "_match_case_ii", lambda *a: False)
    monkeypatch.setattr(lemmas_mod, "_match_case_iii", lambda *a: False)


def test_classify_violation_is_loud(monkeypatch) -> None:
    """Disable every matcher and expect the alarm, not a quiet miss."""
    c = parse_run_string("1111", 2)
    _disable_matchers(monkeypatch)
    with pytest.raises(LemmaViolationError) as exc:
        classify_lemma21(c, 2)
    assert "LEMMA VIOLATION" in str(exc.value)
    assert exc.value.coloring == c


def test_classify_blames_a_non_extremal_big_set() -> None:
    """A big set that fits its frame but is not extremal matches no case.
    classify_lemma21 never sees one: on 0^7 it classifies the extremal
    {1, 2, 5}, while {1, 2, 7} and {1, 5, 7} (max 7, min 1, color 0,
    so beta = 0 and alpha = 2) make _classify raise."""
    c = parse_run_string("0^7", 2)
    ext = find_extremal_b1(c, 3)
    assert ext == ExtremalB1(IntSet([1, 2, 5]), 0, 2, 0)
    case = classify_lemma21(c, 3)
    assert case.mask
    assert case == lemmas_mod._case(*lemmas_mod._classify(c, 3, (5, 1, 0)))
    with pytest.raises(LemmaViolationError, match="beta=0, alpha=2"):
        lemmas_mod._classify(c, 3, (7, 1, 0))


def test_frame_matches_its_definition() -> None:
    """_frame reads Delta on [1, 3m-2-beta] with color k as 1, for every
    2-coloring, both k and every beta, not only the extremal ones."""
    for m in (2, 3, 4, 5):
        n = 3 * m - 2
        for digits in itertools.product((0, 1), repeat=n):
            c = Coloring(digits, 2)
            for k in (0, 1):
                for beta in range(m):
                    expected = "".join(
                        "1" if c.color_at(x) == k else "0"
                        for x in range(1, n - beta + 1)
                    )
                    assert lemmas_mod._frame(c, m, beta, k) == expected


# ======================================================================
# small-diameter guarantees
# ======================================================================

def test_lemma22_no_big_set_branch() -> None:
    finding = check_lemma22(parse_run_string("0011", 2), 2)
    assert finding.branch == "no_big_set"
    assert finding.d1 == IntSet([1, 2])
    assert finding.d2 == IntSet([3, 4])
    assert finding.a1 is None
    assert finding.case is None


def test_lemma22_big_set_branch() -> None:
    c = parse_run_string("1101001", 2)
    finding = check_lemma22(c, 3)
    assert finding.branch == "big_set"
    assert finding.case == classify_lemma21(c, 3)
    assert finding.a1 == finding.a2
    assert finding.a1 is not None
    # case (i) applies, so the inner window also carries a set
    assert finding.a3 is not None


def test_lemma22_violation_is_loud(monkeypatch) -> None:
    monkeypatch.setattr(lemmas_mod, "_min_diam_mset", lambda *a: None)
    with pytest.raises(LemmaViolationError):
        check_lemma22(parse_run_string("1111", 2), 2)
    with pytest.raises(LemmaViolationError):
        check_lemma22(parse_run_string("0011", 2), 2)


def test_lemma22_diameter_bounds_hold_exhaustive() -> None:
    """Every promised set respects its stated diameter bound, is sorted as
    IntSet(...) would sort it, and check_lemma22 reads the same case as
    classify_lemma21, which is None exactly when find_extremal_b1 is."""
    for m in (2, 3, 4, 5):
        n = 3 * m - 2
        for bits in range(1 << n):
            c = Coloring([(bits >> x) & 1 for x in range(n)], 2)
            finding = check_lemma22(c, m)
            ext = find_extremal_b1(c, m)
            assert finding.case == classify_lemma21(c, m)
            assert (finding.case is None) == (ext is None)
            for s in (finding.d1, finding.d2, finding.a1, finding.a2, finding.a3):
                assert s is None or s == IntSet(s.elements)
            if finding.branch == "no_big_set":
                assert finding.d1.max - finding.d1.min == m - 1
                assert finding.d2.max - finding.d2.min == m - 1
                assert finding.d1.max < finding.d2.min
            else:
                a, b = ext.alpha, ext.beta
                assert finding.a1.max <= 3 * m - 2 - a - b
                assert finding.a1.max - finding.a1.min <= 2 * m - 2 - a
                assert (
                    finding.a2.max - finding.a2.min
                    <= m + (m - 1 + b) // 2 - 1
                )
                if finding.a3 is not None:
                    assert finding.a3.max <= m + a + b
                    assert finding.a3.max - finding.a3.min <= m + a + b - 1


def test_lemma22_findings_are_pinned() -> None:
    """Every finding, with its exact d1/d2/a1/a2/a3 sets and case, over all
    2-colorings for m = 2..5 in lex order: one repr per line, hashed."""
    digest = hashlib.sha256()
    for m in (2, 3, 4, 5):
        for digits in itertools.product((0, 1), repeat=3 * m - 2):
            finding = check_lemma22(Coloring(digits, 2), m)
            digest.update(repr(finding).encode() + b"\n")
    assert digest.hexdigest() == (
        "4a4453a9b52201daaafd346832c8f7915ed7793a05c0d9e8d2ab19d5ba3a6ece"
    )


# ======================================================================
# sweeps
# ======================================================================

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sweep_matches_frozen_histograms(m: int) -> None:
    report = sweep_lemmas(m)
    assert report.total == 1 << (3 * m - 2)
    assert report.case_counts == EXPECTED_CASES[m]
    assert report.ties == 0
    assert report.branch_counts["no_big_set"] == EXPECTED_CASES[m]["no_b1"]
    assert sum(report.branch_counts.values()) == report.total


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_walk_carries_each_coloring_its_big_set(m: int) -> None:
    """The walk yields every coloring once, in lex order, indexed as
    Coloring(digits, 2) indexes it, with the big set _least_set finds on
    it, and _check_lemma22 on that set, built by _finding, reads as
    check_lemma22."""
    n = 3 * m - 2
    seen = []
    for c, big in lemmas_mod._walk(m, lemmas_mod._prefixes(m, 1)):
        fresh = Coloring(c.digits, 2)
        assert (c._positions, c._rank) == (fresh._positions, fresh._rank)
        assert big == _least_set(c, m, 1, 2 * m - 2)
        found = lemmas_mod._check_lemma22(c, m, big)
        assert repr(lemmas_mod._finding(*found)) == repr(check_lemma22(c, m))
        seen.append(c.digits)
    assert seen == list(itertools.product((0, 1), repeat=n))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_walk_deals_every_coloring_once(m: int) -> None:
    """Over the parts of any cut, each coloring comes exactly once, from
    the part its prefix of the deal depth was dealt to: the i-th prefix in
    lex order goes to part i % parts. The deal depth is the least D with
    2^D >= _DEAL_PER_PART * parts, or 3m-2 when that is less, so at m <= 3
    that prefix is the whole coloring."""
    n = 3 * m - 2
    for parts in (1, 2, 3, 5, 8):
        prefixes = lemmas_mod._prefixes(m, parts)
        depth = min(n, (search_mod._DEAL_PER_PART * parts - 1).bit_length())
        assert prefixes == list(itertools.product((0, 1), repeat=depth))
        wanted = search_mod._DEAL_PER_PART * parts
        assert depth == n or 2 ** (depth - 1) < wanted <= 2 ** depth
        dealt = Counter()
        for k, mine in enumerate(search_mod._deal(prefixes, parts)):
            for c, _big in lemmas_mod._walk(m, mine):
                prefix = int("".join(map(str, c.digits[:depth])), 2)
                assert prefix % parts == k, (parts, c)
                dealt[c.digits] += 1
        assert sorted(dealt) == list(itertools.product((0, 1), repeat=n))
        assert set(dealt.values()) == {1}, parts


def test_a_deal_has_no_empty_part() -> None:
    """More parts than prefixes deal one prefix a part, so no child starts
    with nothing to walk: 16 binary prefixes over 32 parts, 128 over 129."""
    for m, parts, n in ((2, 32, 16), (3, 129, 128)):
        dealt = search_mod._deal(lemmas_mod._prefixes(m, parts), parts)
        assert len(dealt) == n and all(len(part) == 1 for part in dealt)


def test_sweep_builds_no_result_objects(monkeypatch) -> None:
    """The sweep tallies from the private tuples: with Lemma21Case and
    Lemma22Finding made to raise, it still returns the pinned histogram,
    while check_lemma22 and classify_lemma21, which build them, raise on
    every 2-coloring of [1, 4] (with a big set for classify_lemma21)."""

    def refuse(*args, **kwargs):
        raise AssertionError("result object built")

    monkeypatch.setattr(lemmas_mod, "Lemma21Case", refuse)
    monkeypatch.setattr(lemmas_mod, "Lemma22Finding", refuse)
    report = sweep_lemmas(4)
    assert report.case_counts == EXPECTED_CASES[4]
    assert report.branch_counts["no_big_set"] == EXPECTED_CASES[4]["no_b1"]
    assert sum(report.branch_counts.values()) == report.total
    for digits in itertools.product((0, 1), repeat=4):
        c = Coloring(digits, 2)
        with pytest.raises(AssertionError, match="result object built"):
            check_lemma22(c, 2)
        if find_extremal_b1(c, 2) is not None:
            with pytest.raises(AssertionError, match="result object built"):
                classify_lemma21(c, 2)


def test_sweep_violation_is_loud(monkeypatch) -> None:
    _disable_matchers(monkeypatch)
    with pytest.raises(LemmaViolationError, match="LEMMA VIOLATION"):
        sweep_lemmas(3)


def test_sweep_violation_is_loud_on_two_workers(monkeypatch) -> None:
    """The violation found in a worker process reaches the caller, and no
    child outlives the call. The matchers miss only in a child, so this
    process walks its own part cleanly and the error can only come from
    the child. The patched matchers reach the child only by fork, so the
    child is a fork Process whatever the default start method is."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("patched matchers reach the workers only by fork")
    fork = multiprocessing.get_context("fork")
    opened = []

    def recording_process(**kwargs):
        opened.append(kwargs["args"][-1])
        return fork.Process(**kwargs)

    def in_child(miss, orig):
        def matcher(*args):
            if multiprocessing.parent_process() is not None:
                return miss
            return orig(*args)
        return matcher

    for name, miss in (
        ("_match_case_i", None), ("_match_case_ii", False),
        ("_match_case_iii", False),
    ):
        orig = getattr(lemmas_mod, name)
        monkeypatch.setattr(lemmas_mod, name, in_child(miss, orig))
    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(search_mod, "Process", recording_process)
    with pytest.raises(LemmaViolationError, match="LEMMA VIOLATION") as exc:
        sweep_lemmas(3, workers=2)
    assert opened == [(3, lemmas_mod._prefixes(3, 2)[1::2])]
    # Every coloring of part 1 opens with its prefix of length 7 = 3m-2.
    assert exc.value.coloring.digits in opened[0][1]
    assert multiprocessing.active_children() == []


def test_sweep_parallel_agrees() -> None:
    assert sweep_lemmas(3, workers=2).to_json() == sweep_lemmas(3).to_json()


def test_sweep_parts_add_up() -> None:
    """Summed over the parts of any cut, at the deal depth or any other,
    the counts equal the whole sweep."""
    whole = sweep_lemmas(4)
    expected = Counter({**whole.case_counts, **whole.branch_counts})
    for parts in (1, 2, 3, 5, 8):
        cuts = [lemmas_mod._prefixes(4, parts)] + [
            list(itertools.product((0, 1), repeat=depth))
            for depth in (1, 5, 10)
        ]
        for prefixes in cuts:
            summed = sum(
                (lemmas_mod._sweep_range(4, mine)
                 for mine in search_mod._deal(prefixes, parts)),
                Counter(),
            )
            assert summed == expected, (parts, len(prefixes))


def test_sweep_validation() -> None:
    with pytest.raises(ValueError):
        sweep_lemmas(1)
    with pytest.raises(ValueError):
        sweep_lemmas(2, workers=0)
