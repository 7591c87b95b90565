import numpy as np
import pytest

from ugbench.dataio import (
    LibsvmParseError,
    parse_libsvm,
    serialize_libsvm,
    synth_least_squares,
)


class TestParse:
    def test_hand_written_example(self):
        ds = parse_libsvm("+1 1:0.5 3:2\n-1 2:1\n")
        assert (ds.m, ds.n) == (2, 3)
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 2.0],
                                                    [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n1 1:2.0  # trailing note\n\n  \n-1 1:3.0\n"
        ds = parse_libsvm(text)
        assert ds.m == 2
        np.testing.assert_array_equal(ds.features[:, 0], [2.0, 3.0])

    def test_label_only_row_is_all_zeros(self):
        ds = parse_libsvm("5.0\n1.0 2:1\n")
        np.testing.assert_array_equal(ds.features[0], [0.0, 0.0])
        assert ds.labels[0] == 5.0

    def test_empty_input_rejected(self):
        with pytest.raises(LibsvmParseError, match="no records"):
            parse_libsvm("")
        with pytest.raises(LibsvmParseError, match="no records"):
            parse_libsvm("# only comments\n\n")

    def test_labels_without_features_rejected(self):
        with pytest.raises(LibsvmParseError, match="no features"):
            parse_libsvm("1\n-1 # no index:value pairs\n")

    # the first bad token in file order is reported, also when a later
    # token is malformed or the file has no features
    @pytest.mark.parametrize("text, line, column", [
        pytest.param("nan 1:1\n", 1, 1, id="nan-label"),
        pytest.param("1 1:1 2:inf\n", 1, 3, id="inf-value"),
        pytest.param("1 2:-1e400\n", 1, 2, id="overflowing-value"),
        pytest.param("1 1:inf\n2 x\n", 1, 2, id="before-a-malformed-token"),
        pytest.param("nan\n", 1, 1, id="label-only")])
    def test_non_finite_reports_column(self, text, line, column):
        with pytest.raises(LibsvmParseError,
                           match=f"^non-finite .*line {line}, column {column}"):
            parse_libsvm(text)

    def test_bad_label_reports_line(self):
        with pytest.raises(LibsvmParseError, match="line 2"):
            parse_libsvm("1 1:1\nfoo 1:1\n")

    def test_missing_colon_reports_location(self):
        with pytest.raises(LibsvmParseError, match="line 1, column 2"):
            parse_libsvm("1 notapair\n")

    def test_non_numeric_value(self):
        with pytest.raises(LibsvmParseError, match="1:x"):
            parse_libsvm("1 1:x\n")
        # int and float read "_" and non-ASCII digits; a LIBSVM token is
        # ASCII without "_", and the first bad token in file order is named
        for text, token, line, column in [
                ("1_0 1:5\n", "label '1_0'", 1, 1),
                ("1 1:5\n\u0661 1:5\n", "label '\u0661'", 2, 1),
                ("1 1:5 1_0:5\n", "token '1_0:5'", 1, 3),
                ("1 1:5 \u0661\u0662:2\n", "token '\u0661\u0662:2'", 1, 3),
                ("1 1:1_0\n", "token '1:1_0'", 1, 2),
                ("1 1:5 2:\uff11 3:1_0\n", "token '2:\uff11'", 1, 3),
                ("1 1:inf 2:1_0\n", None, 1, 2)]:
            message = f"non-numeric {token}" if token else "non-finite value inf"
            with pytest.raises(LibsvmParseError) as err:
                parse_libsvm(text)
            assert str(err.value) == f"{message} (line {line}, column {column})"
        # outside a token, in a comment, either is ignored
        assert parse_libsvm("1 1:5 # 1_0 \u0661\n").features.tolist() == [[5.0]]

    def test_tokens_are_separated_by_spaces_and_tabs_only(self):
        # runs of spaces and tabs separate tokens, and a line may end in \r
        ds = parse_libsvm("1\t1:5 \t 2:3  \r\n-1 2:1\n")
        assert ds.features.tolist() == [[5.0, 3.0], [0.0, 1.0]]
        # str.split also splits at other whitespace, and int and float strip
        # it; here it is part of its token, which is not numeric
        for text, token, line, column in [
                ("1\u00a01:5\n-1 1:2\n", "label '1\\xa01:5'", 1, 1),
                ("1\f1:5\n", "label '1\\x0c1:5'", 1, 1),
                ("1 1:5\n-1\u30001:2\n", "label '-1\\u30001:2'", 2, 1),
                ("1 1:5\v\n", "token '1:5\\x0b'", 1, 2),
                ("1 1:5 \x1c2:3\n", "token '\\x1c2:3'", 1, 3),
                ("1 1:5\x1f2:3\n", "token '1:5\\x1f2:3'", 1, 2),
                ("1 1:5\r2:3\n", "token '1:5\\r2:3'", 1, 2)]:
            with pytest.raises(LibsvmParseError) as err:
                parse_libsvm(text)
            assert str(err.value) == (f"non-numeric {token} "
                                      f"(line {line}, column {column})")

    def test_zero_or_negative_index(self):
        with pytest.raises(LibsvmParseError, match=">= 1"):
            parse_libsvm("1 0:2\n")

    def test_non_increasing_indices(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("1 2:1 2:2\n")
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("1 3:1 1:2\n")

    @pytest.mark.parametrize("index", [2**62, 10**30])
    def test_unallocatable_matrix_rejected(self, index):
        # numpy raises ValueError for these shapes, MemoryError for a shape
        # it accepts but cannot allocate
        with pytest.raises(LibsvmParseError, match=(
                f"^cannot allocate the 2 x {index} feature matrix$")):
            parse_libsvm(f"1 1:1\n-1 {index}:1\n")

    def test_classification_remaps_01_labels(self):
        ds = parse_libsvm("0 1:1\n1 1:2\n", classification=True)
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])

    def test_classification_leaves_pm1_alone(self):
        ds = parse_libsvm("-1 1:1\n+1 1:2\n", classification=True)
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])

    @pytest.mark.parametrize("text, line, label", [
        ("1 1:0.5\n2 1:0.1\n3 1:1\n", 2, "2.0"),
        ("# three classes\n-1 1:1\n1 1:2\n\n0 1:3\n", 5, "0.0"),
        ("1 1:1\n0.5 1:2\n", 2, "0.5")], ids=["1-2-3", "0-mixed-with-pm1",
                                               "fraction"])
    def test_classification_rejects_a_label_outside_two_classes(
            self, text, line, label):
        # {0, 1} is remapped only when it holds every label
        with pytest.raises(LibsvmParseError, match=(
                f"^classification labels must be -1/\\+1 or all 0/1, got "
                f"{label} \\(line {line}, column 1\\)$")) as info:
            parse_libsvm(text, classification=True)
        assert (info.value.line, info.value.column) == (line, 1)
        # regression data keeps any finite label
        assert parse_libsvm(text).m == text.count(":")

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("1 1:4.25\n")
        with open(path) as fh:
            ds = parse_libsvm(fh, source=str(path))
        assert ds.features[0, 0] == 4.25
        assert ds.source == str(path)


def test_round_trip_preserves_data():
    rng = np.random.Generator(np.random.Philox(23))
    features = rng.standard_normal((8, 5))
    features[rng.random((8, 5)) < 0.4] = 0.0
    labels = rng.standard_normal(8)
    from ugbench.dataio import Dataset
    ds = Dataset(features=features, labels=labels)
    back = parse_libsvm(serialize_libsvm(ds))
    # trailing all-zero columns cannot round-trip; this draw has none
    assert back.n == 5
    np.testing.assert_array_equal(back.features, features)
    np.testing.assert_array_equal(back.labels, labels)
    # -0.0 is omitted as 0.0 is, a subnormal keeps its repr, a row of zeros
    # is its label alone, and integer data print as floats
    ds = Dataset(features=np.array([[-0.0, 5e-324], [0.0, 0.0]]),
                 labels=np.array([1.0, -2.0]))
    assert serialize_libsvm(ds) == "1.0 2:5e-324\n-2.0\n"
    ds = Dataset(features=np.array([[1, 0, 3]]), labels=np.array([2]))
    assert serialize_libsvm(ds) == "2.0 1:1.0 3:3.0\n"


class TestSynthetic:
    def test_least_squares_properties(self):
        ds, x_star = synth_least_squares(10, 4, seed=2)
        assert (ds.m, ds.n) == (10, 4)
        assert np.linalg.norm(x_star) == pytest.approx(1.0)
        np.testing.assert_allclose(ds.features @ x_star, ds.labels, rtol=1e-12)
        assert np.all((ds.features >= 0.0) & (ds.features <= 1.0))
        assert ds.source == "synthetic:ls:10x4:2"

    def test_deterministic_given_seed(self):
        a, xa = synth_least_squares(6, 3, seed=11)
        b, xb = synth_least_squares(6, 3, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(xa, xb)
        c, _ = synth_least_squares(6, 3, seed=12)
        assert not np.array_equal(a.features, c.features)

    def test_p_power_range_check(self):
        # p-power instances are synthetic least-squares data under p_power_f
        from ugbench.problems import p_power_f
        ds, _ = synth_least_squares(5, 2, seed=0)
        for p in (0.5, 2.5):
            with pytest.raises(ValueError, match=r"p must lie in \[1, 2\]"):
                p_power_f(ds.features, ds.labels, p)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            synth_least_squares(0, 3, seed=0)

    def test_objective_convex_along_segments(self):
        # midpoint convexity of the induced least-squares objective
        from ugbench.problems import least_squares_f
        ds, _ = synth_least_squares(9, 4, seed=8)
        obj = least_squares_f(ds.features, ds.labels)
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            mid = obj.value(0.5 * (x + y))
            assert mid <= 0.5 * (obj.value(x) + obj.value(y)) + 1e-12
