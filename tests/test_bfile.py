import pytest

from kunits import BFile, BFileParseError, DomainError, compare_bfile, is_carmichael, is_rdu_one
from kunits.classify import _predicate


def point_members(predicate, top):
    """{n in [1, top] : predicate(n)}, from the point call n by n."""
    return frozenset(n for n in range(1, top + 1) if predicate(n))


CARMICHAELS_TO_2000 = point_members(is_carmichael, 2000)


class TestParsing:
    def test_basic(self):
        bf = BFile.parse_text("1 561\n2 1105\n3 1729\n")
        assert bf.entries == ((1, 561), (2, 1105), (3, 1729))
        assert bf.values == (561, 1105, 1729)

    def test_comments_blanks_and_whitespace(self):
        text = "# A002997\n\n  # indented comment\n1 561   \n\n  2\t1105\n"
        bf = BFile.parse_text(text)
        assert bf.entries == ((1, 561), (2, 1105))

    def test_negative_indices_allowed(self):
        bf = BFile.parse_text("-1 5\n0 7\n1 11\n")
        assert bf.values == (5, 7, 11)

    def test_empty(self):
        assert BFile.parse_text("").entries == ()
        assert BFile.parse_text("# only comments\n\n").entries == ()

    def test_one_token_is_error_with_line_number(self):
        with pytest.raises(BFileParseError) as err:
            BFile.parse_text("1 561\n1105\n")
        assert err.value.line_number == 2

    def test_three_tokens_is_error(self):
        with pytest.raises(BFileParseError):
            BFile.parse_text("1 561 999\n")

    def test_non_integer_is_error(self):
        with pytest.raises(BFileParseError) as err:
            BFile.parse_text("1 561\n2 x\n")
        assert err.value.line_number == 2

    def test_non_increasing_index_is_error(self):
        with pytest.raises(BFileParseError) as err:
            BFile.parse_text("1 561\n1 1105\n")
        assert err.value.line_number == 2
        with pytest.raises(BFileParseError):
            BFile.parse_text("2 561\n1 1105\n")

    def test_negative_value_is_error(self):
        with pytest.raises(BFileParseError):
            BFile.parse_text("1 -5\n")

    def test_parse_path(self, tmp_path):
        path = tmp_path / "b002997.txt"
        path.write_text("1 561\n2 1105\n", encoding="utf-8")
        bf = BFile.parse_path(path)
        assert bf.source_path == str(path)
        assert bf.values == (561, 1105)


class TestComparison:
    def test_exact_match(self):
        bf = BFile.parse_text("1 561\n2 1105\n3 1729\n")
        report = compare_bfile(bf, CARMICHAELS_TO_2000, limit=2000)
        assert report.matched
        assert report.compared == 3
        assert report.missing == () and report.extra == ()

    def test_missing_term_detected(self):
        bf = BFile.parse_text("1 561\n2 1729\n")  # 1105 absent
        report = compare_bfile(bf, CARMICHAELS_TO_2000, limit=2000)
        assert not report.matched
        assert report.missing == (1105,)
        assert report.extra == ()

    def test_extra_term_detected(self):
        bf = BFile.parse_text("1 561\n2 563\n3 1105\n4 1729\n")
        report = compare_bfile(bf, CARMICHAELS_TO_2000, limit=2000)
        assert report.extra == (563,)

    def test_limit_defaults_to_max_value(self):
        bf = BFile.parse_text("1 561\n2 1105\n")
        report = compare_bfile(bf, CARMICHAELS_TO_2000)
        assert report.limit == 1105
        assert report.matched

    def test_values_above_limit_ignored(self):
        bf = BFile.parse_text("1 561\n2 1105\n3 1729\n4 999999\n")
        report = compare_bfile(bf, CARMICHAELS_TO_2000, limit=2000)
        assert report.matched
        assert report.compared == 3

    def test_empty_file_matches_vacuously(self):
        report = compare_bfile(BFile.parse_text(""), CARMICHAELS_TO_2000, limit=100)
        assert report.matched
        assert report.compared == 0

    def test_negative_limit_is_refused(self):
        for text in ("1 561\n", ""):
            bf = BFile.parse_text(text)
            with pytest.raises(DomainError, match="limit must be >= 0, got -5"):
                compare_bfile(bf, CARMICHAELS_TO_2000, limit=-5)
            report = compare_bfile(bf, CARMICHAELS_TO_2000, limit=0)
            assert (report.limit, report.compared, report.matched) == (0, 0, True)

    def test_member_set_matches_the_predicate(self):
        bf = BFile.parse_text("1 561\n2 563\n3 1729\n")
        # members outside [1, limit] are left out, as the predicate never sees them
        members = frozenset({0, 561, 1105, 1729, 2465, 10**6})
        for limit in (None, 1000, 2000):
            report = compare_bfile(bf, members, limit)
            assert report == compare_bfile(bf, CARMICHAELS_TO_2000, limit)
        assert (report.missing, report.extra) == ((1105,), (563,))
        # the sieved members oeis-check compares are the point verdicts
        assert _predicate("carmichael", 2000) == CARMICHAELS_TO_2000

    @pytest.mark.parametrize(
        "name, message",
        [
            ("bogus", "unknown predicate 'bogus'; expected "),
            ("bogus:3", "unknown predicate 'bogus:3'; expected "),
            ("knodel", "predicate 'knodel' needs an integer parameter"),
            ("knodel:x", "predicate 'knodel:x' needs an integer parameter"),
            ("carmichael:1", "the carmichael predicate takes no parameter"),
            ("carmichael:", "the carmichael predicate takes no parameter"),
        ],
    )
    def test_bad_predicate_name_is_refused(self, name, message):
        with pytest.raises(DomainError) as exc:
            _predicate(name, 100)
        assert str(exc.value).startswith(message)

    def test_rdu_one_predicate(self):
        bf = BFile.parse_text("\n".join(f"{i} {v}" for i, v in enumerate([1, 2, 3, 4, 6, 8, 12, 24])))
        members = point_members(lambda n: is_rdu_one(n, 2), 100)
        report = compare_bfile(bf, members, limit=100)
        assert report.matched
        assert report.compared == 8
