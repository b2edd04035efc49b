"""CLI subcommands, exit codes, and output determinism."""

import json
import time

import pytest

from oracles import as_rows, f_factor_by_division
from pcfcert import cli, factoring, finitefield, numfield, orbits
from pcfcert.cli import main, parse_scalar_literal, UsageError
from pcfcert.factoring import NotUnit, ShapeViolation
from pcfcert.numfield import NotIntegral, nf_new
from pcfcert.polyring import NotDivisible, Poly, ZZ, mul_rows


MISMATCH = "refuted (internal oracle mismatch): "


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLiterals:
    def setup_method(self):
        self.K = nf_new(Poly.from_ints(ZZ, [3, 0, 3, 0, 1]))

    def test_integer(self):
        assert parse_scalar_literal("4", self.K) == self.K.from_int(4)
        assert parse_scalar_literal("-7", self.K) == self.K.from_int(-7)

    def test_rational(self):
        from fractions import Fraction

        assert parse_scalar_literal("3/2", self.K) == self.K.from_rational(Fraction(3, 2))

    def test_polynomial(self):
        c = self.K.gen()
        assert parse_scalar_literal("c^2", self.K) == c * c
        assert parse_scalar_literal("2*c^2-c+3", self.K) == (
            self.K.from_int(2) * c * c - c + self.K.from_int(3)
        )

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_scalar_literal("x+1", self.K)


class TestSubcommands:
    def test_gleason_text(self, capsys):
        code, out, _ = run_cli(capsys, "gleason", "--d", "2", "--n", "3")
        assert code == 0
        assert out.strip() == "c^3 + 2*c^2 + c + 1"

    def test_misiurewicz_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "misiurewicz", "--d", "3", "--m", "2", "--n", "1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["norm_form"]["coeffs"] == ["3", "0", "3", "0", "1"]

    def test_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--d", "2", "--i", "2")
        assert code == 0 and out.strip() == "c^2 + c"

    def test_exact_type(self, capsys):
        code, out, _ = run_cli(capsys, "exact-type", "--d", "2", "--gleason-n", "2")
        assert code == 0 and out.strip() == "Periodic(2)"

    def test_factor_verify_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "--d", "2", "--gleason-n", "2", "--k", "3",
            "--verify", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["product"]["count"] == 3
        assert data["certificate"]["verdict"] == "Verified"

    @pytest.mark.parametrize("cmd", ["factor", "verify-factor"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_factor_builds_only_the_requested_rendering(self, capsys, monkeypatch, cmd, fmt):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"built for --format {fmt}")

        if fmt == "json":
            monkeypatch.setattr(cli.NumberField, "poly_from_rows", forbidden)
        else:
            monkeypatch.setattr(cli.jsonio, "factor_product_json", forbidden)
            monkeypatch.setattr(cli.jsonio, "certificate_json", forbidden)
        verify = ["--verify"] if cmd == "factor" else []
        code, out, err = run_cli(
            capsys, cmd, "--d", "2", "--gleason-n", "3", "--k", "4", *verify,
            "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert ("verification: Verified" in out) is (fmt == "text")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("argv", [
        ("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5"),
        ("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5", "--i", "1"),
        ("nonabelian-cert", "--d", "2", "--gleason-n", "3", "--case", "periodic-2",
         "--alpha", "0"),
    ])
    def test_certificates_build_only_the_requested_rendering(
        self, capsys, monkeypatch, argv, fmt
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"built for --format {fmt}")

        if fmt == "json":
            monkeypatch.setattr(cli, "_cert_text", forbidden)
        else:
            monkeypatch.setattr(cli.jsonio, "certificate_json", forbidden)
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out.startswith("{") is (fmt == "json")

    def test_stability_verified(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability-cert", "--d", "2", "--misiurewicz", "2,1",
            "--alpha", "4", "--kmax", "12",
        )
        assert code == 0 and "Verified" in out

    def test_stability_hypothesis_unmet(self, capsys):
        code, _, err = run_cli(
            capsys, "stability-cert", "--d", "2", "--gleason-n", "2",
            "--alpha", "1", "--kmax", "4",
        )
        assert code == 2 and "hypothesis unmet" in err

    @pytest.mark.parametrize("index", [(), ("--i", "1"), ("--i", "2")])
    def test_f_irred_cert_builds_no_exact_rows(self, capsys, monkeypatch, index):
        # the primary route reads residues mod d and orbit values only
        def forbidden(*args, **kwargs):
            raise AssertionError("exact rows built")

        monkeypatch.setattr(factoring, "f_factor", forbidden)
        monkeypatch.setattr(factoring, "iterate_rows", forbidden)
        for fmt in ("text", "json"):
            code, out, err = run_cli(
                capsys, "f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "10",
                *index, "--format", fmt,
            )
            assert (code, err) == (0, "") and "Verified" in out

    def test_warm_f_irred_cert_runs_no_resultant(self, capsys, monkeypatch):
        # the norms of the orbit values are kept with the field's orbit
        argv = ("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "8", "--format", "json")
        first = run_cli(capsys, *argv)
        calls = []
        resultant = numfield.resultant

        def spy(*args):
            calls.append(args)
            return resultant(*args)

        monkeypatch.setattr(numfield, "resultant", spy)
        assert run_cli(capsys, *argv) == first and first[0] == 0
        assert calls == []

    @pytest.mark.parametrize("cmd", ["factor", "verify-factor"])
    def test_factor_verification_runs_no_gcd(self, capsys, monkeypatch, cmd):
        # the CLI's closed form is proved coprime from its orbit values; the
        # fields are built first, as certifying g factors it mod p
        for d, n in ((2, 3), (2, 4), (3, 2)):
            cli._field(orbits.gleason(d, n).coeffs)

        def forbidden(*args, **kwargs):
            raise AssertionError("gcd computed")

        monkeypatch.setattr(finitefield, "_gcd", forbidden)
        monkeypatch.setattr(factoring, "gcd_poly", forbidden)
        verify = ["--verify"] if cmd == "factor" else []
        for d, n, k in (("2", "3", "8"), ("2", "4", "8"), ("3", "2", "5")):
            code, out, err = run_cli(
                capsys, cmd, "--d", d, "--gleason-n", n, "--k", k, *verify, "--format", "json",
            )
            assert (code, err) == (0, "")
            (w,) = [w for w in json.loads(out)["certificate"]["witnesses"]
                    if w["step"] == "pairwise-coprime"]
            assert w["route"] == "orbit"

    def test_f_irred_cert(self, capsys):
        code, out, _ = run_cli(
            capsys, "f-irred-cert", "--d", "2", "--gleason-n", "2", "--k", "2", "--i", "1"
        )
        assert code == 0 and "Verified" in out

    def test_disc_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "disc-check", "--d", "3", "--gleason-n", "2", "--x0", "3", "--k", "2"
        )
        assert code == 0 and "oracle-checked" in out

    def test_ideal_audit(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal-audit", "--d", "3", "--misiurewicz", "2,1", "--i", "1"
        )
        assert code == 0 and "A_emp = 4" in out

    def test_nonabelian_verified(self, capsys):
        code, out, _ = run_cli(
            capsys, "nonabelian-cert", "--d", "2", "--gleason-n", "3",
            "--case", "periodic-1", "--alpha", "2",
        )
        assert code == 0 and "Verified" in out

    def test_nonabelian_unsupported_exits_4(self, capsys, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"g": {"var": "c", "coeffs": ["3", "0", "1"]}}))
        code, _, err = run_cli(
            capsys, "nonabelian-cert", "--d", "2", "--field", str(path),
            "--case", "preperiodic-1", "--alpha", "4",
        )
        assert code == 4 and "unsupported" in err

    def test_field_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"g": {"var": "c", "coeffs": ["1", "1", "2", "1"]}}))
        code, out, _ = run_cli(capsys, "exact-type", "--d", "2", "--field", str(path))
        assert code == 0 and out.strip() == "Periodic(3)"


class TestErrors:
    def test_usage_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "exact-type", "--d", "2")
        assert code == 3

    def test_conflicting_field_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "exact-type", "--d", "2", "--gleason-n", "2", "--misiurewicz", "2,1"
        )
        assert code == 3

    def test_budget_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys, "factor", "--d", "2", "--gleason-n", "2", "--k", "30",
            "--budget", "1024",
        )
        assert code == 4

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_all_factors_budget_exit_4(self, capsys, fmt):
        # refused up front, as building f^13's factors was, not by the
        # mod-prime fallback of each certificate
        code, out, err = run_cli(
            capsys, "f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "13",
            "--format", fmt,
        )
        assert (code, out) == (4, "")
        assert err == "unsupported: deg f^13 = 2^13 exceeds budget 4096\n"

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (("--k", "4"), 1,
             "refuted (falsified identity): a_3 != a_2^2 + c0: c0 is not of period 3\n"),
            (("--k", "0"), 3, "error: requires n >= 2 and k >= 1\n"),
        ],
    )
    @pytest.mark.parametrize("cmd", ["factor", "f-irred-cert"])
    def test_all_factors_raise_like_the_product(self, capsys, monkeypatch, cmd, argv,
                                               code, err):
        # c0 = -1 has period 2, so the claimed period 3 breaks a_3 = a_2^2 + c0
        monkeypatch.setattr(cli, "_period_of", lambda args, fieldK: 3)
        assert run_cli(capsys, cmd, "--d", "2", "--gleason-n", "2", *argv) == (code, "", err)

    def test_disc_check_budget_exit_4(self, capsys):
        # d^k = 2^40 exceeds the default budget: refused before any arithmetic
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "disc-check", "--d", "2", "--gleason-n", "2", "--x0", "3", "--k", "40"
        )
        assert code == 4 and out == ""
        assert "deg f^40 = 2^40 exceeds budget 4096" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("misiurewicz", "--d", "4", "--m", "2", "--n", "1"),
            ("gleason", "--d", "1", "--n", "2"),
            ("gleason", "--d", "0", "--n", "2"),
            ("f-irred-cert", "--d", "2", "--gleason-n", "2", "--k", "1", "--i", "5"),
            ("stability-cert", "--d", "2", "--gleason-n", "2", "--alpha", "1/0",
             "--kmax", "3"),
        ],
    )
    def test_invalid_input_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("stability-cert", "--d", "3", "--gleason-n", "2", "--alpha", "3/2",
             "--kmax", "3"),
            # the nonabelian-cert cases that call the stability certificate
            ("nonabelian-cert", "--d", "2", "--gleason-n", "3", "--case", "periodic-1",
             "--alpha", "2/3"),
            ("nonabelian-cert", "--d", "3", "--gleason-n", "2", "--case", "periodic-3",
             "--alpha", "3/2"),
        ],
    )
    def test_non_integral_alpha_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("hypothesis unmet: ") and "not an algebraic integer" in err

    def test_non_integral_alpha_in_disc_parity_case(self, capsys):
        # preperiodic-2 reports an unavailable stability route as a diagnostic
        code, out, _ = run_cli(
            capsys, "nonabelian-cert", "--d", "3", "--misiurewicz", "2,1",
            "--case", "preperiodic-2", "--alpha", "9/2", "--format", "json",
        )
        assert code == 2
        diagnostics = json.loads(out)["diagnostics"]
        assert any("not an algebraic integer" in m for m in diagnostics)

    @pytest.mark.parametrize(
        "exc, code, prefix",
        [
            (ShapeViolation, 1, "refuted (falsified identity): "),
            (NotDivisible, 1, "refuted (falsified identity): "),
            (NotIntegral, 2, "hypothesis unmet: "),
            (NotUnit, 2, "hypothesis unmet: "),
            (ZeroDivisionError, 3, "error: "),
        ],
    )
    def test_library_exception_exit_codes(self, capsys, monkeypatch, exc, code, prefix):
        def driver(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(cli, "verify_factorization", driver)
        got, out, err = run_cli(
            capsys, "factor", "--d", "2", "--gleason-n", "2", "--k", "3", "--verify",
        )
        assert got == code and out == ""
        assert err == prefix + "boom\n" and "Traceback" not in err

    def test_failed_norm_form_identity_exit_1(self, capsys, monkeypatch):
        def skewed(a, b, g):  # a zeta-entry in the conjugate product
            rows = mul_rows(a, b, g)
            rows[0][1] += 1
            return rows

        monkeypatch.setattr(orbits, "mul_rows", skewed)
        code, out, err = run_cli(capsys, "misiurewicz", "--d", "3", "--m", "2", "--n", "1")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == MISMATCH + "norm form has a coefficient outside Z\n"

    def test_failed_hensel_lift_exit_1(self, capsys, monkeypatch):
        lift = finitefield._lift_list

        def skewed(g, seeds, p, T):
            lifted = lift(g, seeds, p, T)
            return [lifted[0] + Poly.make(ZZ, [p])] + lifted[1:]

        monkeypatch.setattr(finitefield, "_lift_list", skewed)
        code, out, err = run_cli(
            capsys, "stability-cert", "--d", "2", "--gleason-n", "3",
            "--alpha", "4", "--kmax", "3",
        )
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == MISMATCH + "Hensel lift verification failed\n"

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_kmax_below_one_exit_3(self, capsys, kmax):
        # a claim about k <= 0 is vacuous: usage error, not a certificate
        code, out, err = run_cli(
            capsys, "stability-cert", "--d", "2", "--misiurewicz", "2,1", "--alpha", "4",
            "--kmax", kmax,
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("stability-cert", "--d", "5", "--misiurewicz", "2,3", "--alpha", "c", "--kmax", "0"),
         "k_max must be >= 1, got 0"),
        (("stability-cert", "--d", "2", "--gleason-n", "2", "--alpha", "2", "--kmax", "0"),
         "k_max must be >= 1, got 0"),
        (("f-irred-cert", "--d", "5", "--gleason-n", "4", "--k", "1", "--i", "7"),
         "f_irreducibility_certificate requires n >= 2, k >= 0, 1 <= i <= n-1"),
        (("f-irred-cert", "--d", "2", "--gleason-n", "2", "--k", "1", "--i", "5"),
         "f_irreducibility_certificate requires n >= 2, k >= 0, 1 <= i <= n-1"),
        (("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "-1", "--i", "1"),
         "f_irreducibility_certificate requires n >= 2, k >= 0, 1 <= i <= n-1"),
        (("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "0"),
         "requires n >= 2 and k >= 1"),
        (("f-irred-cert", "--d", "2", "--gleason-n", "1", "--k", "1"),
         "requires n >= 2 and k >= 1"),
    ])
    def test_range_errors_before_the_field(self, capsys, monkeypatch, argv, message):
        # the same exit and message as when the certificate raises them,
        # without building the field first
        def unbuilt(coeffs):
            raise AssertionError("field built")

        monkeypatch.setattr(cli, "_field", unbuilt)
        assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("precision", ["0", "-2"])
    def test_precision_below_one_exit_3(self, capsys, precision):
        code, out, err = run_cli(
            capsys, "stability-cert", "--d", "2", "--misiurewicz", "2,1", "--alpha", "4",
            "--kmax", "3", "--precision", precision,
        )
        assert code == 3 and out == ""
        assert err == f"error: --precision must be >= 1, got {precision}\n"

    def test_reducible_field_exit_3(self, capsys, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"g": {"var": "c", "coeffs": ["-2", "1", "1"]}}))
        code, _, _ = run_cli(capsys, "exact-type", "--d", "2", "--field", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "data",
        [
            {"h": 1},
            [1, 2],
            {"g": 5},
            {"g": {"coeffs": [1.9, 1]}},
            {"g": {"coeffs": "11"}},
            {"g": {"coeffs": [True, 0, 1]}},
            {"g": {"coeffs": ["1", "1.5", "1"]}},
        ],
    )
    def test_malformed_field_file_exit_3(self, capsys, tmp_path, data):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "exact-type", "--d", "2", "--field", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_field_file_integer_coefficients(self, capsys, tmp_path):
        # JSON ints and decimal-integer strings, as jsonio writes them
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"g": {"coeffs": [1, "1", 2, "1"]}}))
        code, out, _ = run_cli(capsys, "exact-type", "--d", "2", "--field", str(path))
        assert code == 0 and out == "Periodic(3)\n"

    @pytest.mark.parametrize("i", ["0", "-1"])
    def test_ideal_audit_index_below_one_exit_3(self, capsys, i):
        code, out, err = run_cli(
            capsys, "ideal-audit", "--d", "2", "--misiurewicz", "2,1", "--i", i
        )
        assert code == 3 and out == ""
        assert err == f"error: ideal_power_audit requires i >= 1, got {i}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("stability-cert", "--d", "2", "--gleason-n", "2", "--alpha=--", "--kmax", "3"),
            ("disc-check", "--d", "2", "--gleason-n", "2", "--x0=--", "--k", "2"),
            ("exact-type", "--d", "2", "--misiurewicz=--"),
            ("exact-type", "--d", "2", "--field=--"),
            ("exact-type", "--d=--", "--gleason-n", "2"),
            ("exact-type", "--d", "2", "--gleason-n=--"),
            ("exact-type", "--d", "2", "--gleason-n", "2", "--format=--"),
            ("nonabelian-cert", "--d", "2", "--gleason-n", "3", "--case=--", "--alpha", "0"),
        ],
    )
    def test_double_dash_value_exit_3(self, capsys, argv):
        # "--opt=--" must read as a missing value, not as an empty list
        code, out, err = run_cli(capsys, *argv)
        (option,) = [a.split("=")[0] for a in argv if a.endswith("=--")]
        assert code == 3 and out == ""
        assert err == f"error: argument {option}: expected one argument\n"


class TestReach:
    """Stability certificates at iterate degrees 4096 and 65536."""

    @pytest.mark.parametrize("extra, N", [((), 12), (("--budget", "70000"), 16)])
    def test_readme_stability_example(self, capsys, extra, N):
        code, out, _ = run_cli(
            capsys, "stability-cert", "--d", "2", "--misiurewicz", "2,1", "--alpha", "4",
            "--kmax", str(N), *extra, "--format", "json",
        )
        cert = json.loads(out)
        assert code == 0 and cert["verdict"] == "Verified"
        assert [w["N"] for w in cert["witnesses"] if w["step"] == "descent"] == [N]


class TestParser:
    SEQUENCE = (
        ("factor", "--d", "2", "--gleason-n", "2", "--k", "3", "--verify"),
        ("factor", "--d", "2", "--gleason-n", "2", "--k", "3"),
        ("gleason", "--d", "2", "--n", "3", "--format", "json"),
        ("gleason", "--d", "2", "--n", "3"),
        ("stability-cert", "--d", "3", "--gleason-n", "2", "--alpha", "3", "--kmax", "3",
         "--format", "json"),
        ("stability-cert", "--d", "3", "--gleason-n", "2", "--alpha", "3", "--kmax", "3"),
        ("exact-type", "--d", "2"),
        ("f-irred-cert", "--d", "2", "--gleason-n", "2", "--k", "2", "--i", "1"),
        ("f-irred-cert", "--d", "2", "--gleason-n", "2", "--k", "2", "--format", "json"),
    )

    def test_shared_parser_matches_fresh_parsers(self, capsys):
        cli._parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 3, 0, 0]


class TestDeterminism:
    CASES = (
        ("gleason", "--d", "2", "--n", "4", "--format", "json"),
        ("misiurewicz", "--d", "3", "--m", "2", "--n", "1", "--format", "json"),
        (
            "factor", "--d", "2", "--gleason-n", "3", "--k", "4", "--verify",
            "--format", "json", "--seed", "1",
        ),
        (
            "stability-cert", "--d", "3", "--gleason-n", "2", "--alpha", "3",
            "--kmax", "6", "--format", "json", "--seed", "1",
        ),
        (
            "nonabelian-cert", "--d", "3", "--gleason-n", "2", "--case",
            "periodic-3", "--alpha", "3", "--format", "json", "--seed", "1",
        ),
    )

    def test_byte_identical_repeats(self, capsys):
        for argv in self.CASES:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second
            assert first[0] == 0


class TestWarmCache:
    """``main`` keeps one field per defining polynomial across calls."""

    @staticmethod
    def field_file(path, coeffs):
        path.write_text(json.dumps({"g": {"var": "c", "coeffs": [str(c) for c in coeffs]}}))
        return str(path)

    @staticmethod
    def resolve(*argv):
        return cli.resolve_field(cli._parser().parse_args(list(argv)))

    def test_reducible_field_is_refused_each_time_and_never_kept(self, capsys, tmp_path):
        path = self.field_file(tmp_path / "field.json", [-2, 1, 1])
        before = cli._field.cache_info()
        for _ in range(2):
            code, out, err = run_cli(capsys, "exact-type", "--d", "2", "--field", path)
            assert code == 3 and out == "" and "reducible" in err
        after = cli._field.cache_info()
        assert after.misses == before.misses + 2 and after.currsize == before.currsize

    def test_field_file_and_gleason_flag_share_one_field(self, tmp_path):
        K = self.resolve("exact-type", "--d", "2", "--gleason-n", "3")
        path = self.field_file(tmp_path / "field.json", K.g.coeffs)
        assert self.resolve("exact-type", "--d", "2", "--field", path) is K
        assert self.resolve("exact-type", "--d", "2", "--gleason-n", "3") is K

    def test_cache_is_bounded_and_a_rebuilt_field_gives_the_same_bytes(
        self, capsys, tmp_path
    ):
        argv = ("stability-cert", "--d", "2", "--gleason-n", "3", "--alpha", "2",
                "--kmax", "6", "--format", "json")
        first = run_cli(capsys, *argv)
        K = self.resolve(*argv)
        for a in range(1, cli.FIELD_CACHE_SIZE + 1):  # c^2 + a is irreducible
            path = self.field_file(tmp_path / f"field{a}.json", [a, 0, 1])
            self.resolve("exact-type", "--d", "2", "--field", path)
        assert cli._field.cache_info().currsize <= cli.FIELD_CACHE_SIZE
        assert self.resolve(*argv) is not K
        assert run_cli(capsys, *argv) == first
        assert first[0] == 0


def factor_argv(d, n, k, *extra):
    return ("factor", "--d", str(d), "--gleason-n", str(n), "--k", str(k), *extra)


class TestKeptFactors:
    """Each field keeps every closed-form factor F(m, i) it has built, and
    every reader shares those rows."""

    @pytest.mark.parametrize(
        "d, n, kmax",
        # criterion 3's ranges
        [(2, 2, 10), (2, 3, 10), (2, 4, 8), (3, 2, 5), (5, 2, 4)],
    )
    def test_kept_factors_match_exact_division(self, capsys, d, n, kmax):
        requests = [factor_argv(d, n, k, "--verify", "--format", "json")
                    for k in range(1, kmax + 1)]
        first = [run_cli(capsys, *argv) for argv in requests]  # cold
        K = cli._field(orbits.gleason(d, n).coeffs)
        kept = dict(K._factors)
        named = {(d, *params) for k in range(1, kmax + 1)
                 for label, params, _ in factoring.closed_form_factors(K, d, n, k)
                 if label != "linear"}
        assert set(kept) == named
        expected = {key: as_rows(f_factor_by_division(K, d, n, *key[1:]))[0] for key in kept}
        assert kept == expected
        assert [run_cli(capsys, *argv) for argv in requests] == first  # warm
        assert K._factors == expected
        assert all(K._factors[key] is rows for key, rows in kept.items())
        assert {code for code, _, _ in first} == {0}

    def test_warm_factor_verify_runs_no_geometric_sum(self, capsys, monkeypatch):
        # the benchmark's factor-verify requests: each factor is built once
        # on the cold request, and never on the warm one
        calls = []
        geometric_sum = factoring._geometric_sum

        def spy(*args):
            calls.append(args[1:4])
            return geometric_sum(*args)

        monkeypatch.setattr(factoring, "_geometric_sum", spy)
        for d, n, k in ((2, 2, 9), (2, 3, 8), (2, 4, 8), (3, 2, 5)):
            argv = factor_argv(d, n, k, "--verify", "--format", "json")
            first = run_cli(capsys, *argv)
            labels = {lab for lab, _, _ in factoring.closed_form_factors(
                cli._field(orbits.gleason(d, n).coeffs), d, n, k)}
            assert len(calls) == len(set(calls)) == len(labels) - 1  # not the linear one
            calls.clear()
            assert run_cli(capsys, *argv) == first and first[0] == 0
            assert calls == []

    def test_kept_rows_unchanged_by_every_consumer(self, capsys):
        consumers = [
            factor_argv(2, 3, 6),
            factor_argv(2, 3, 6, "--format", "json"),
            factor_argv(2, 3, 6, "--verify"),
            factor_argv(2, 3, 6, "--verify", "--format", "json"),
            ("verify-factor", "--d", "2", "--gleason-n", "3", "--k", "6"),
            ("verify-factor", "--d", "2", "--gleason-n", "3", "--k", "6", "--format", "json"),
            # the mod-prime fallback reduces F(5, 1) at several primes
            ("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5", "--i", "1",
             "--budget", "64"),
        ]
        first = [run_cli(capsys, *argv) for argv in consumers]
        K = cli._field(orbits.gleason(2, 3).coeffs)
        kept = {key: (rows, [list(row) for row in rows]) for key, rows in K._factors.items()}
        assert (2, 5, 1) in kept
        for argv, output in zip(consumers, first):
            assert run_cli(capsys, *argv) == output
            assert all(K._factors[key] is rows and rows == copy
                       for key, (rows, copy) in kept.items()), argv
        expanded, den = factoring.iterate_factorization(K, 2, 3, 6).expanded_rows()
        assert den == 1 and expanded == factoring.iterate_rows(K, 2, 6)
        assert all(K._factors[key] is rows and rows == copy
                   for key, (rows, copy) in kept.items())

    @pytest.mark.parametrize(
        "argv, code",
        # F(5, 1) and f^6 need 2^6 <= budget: the warm field keeps both
        [(factor_argv(2, 3, 5, "--verify", "--budget", "16"), 4),
         (factor_argv(2, 3, 5, "--verify", "--budget", "32", "--format", "json"), 0),
         (("verify-factor", "--d", "2", "--gleason-n", "3", "--k", "6", "--budget", "32"), 4),
         (("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5", "--budget", "16"), 4),
         (("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5", "--i", "1",
           "--budget", "32"), 2),
         (("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5", "--i", "1",
           "--budget", "64", "--format", "json"), 2),
         # the warm field keeps F(2, 1), which the fallback certifies at
         # budget 8; at budget 4 it may not be read
         (("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "2", "--i", "1",
           "--budget", "4"), 2)],
    )
    def test_small_budget_warm_as_cold(self, capsys, argv, code):
        cold = run_cli(capsys, *argv)
        cli._field.cache_clear()
        for warmup in (factor_argv(2, 3, 8, "--verify"),
                       ("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "5", "--i",
                        "1", "--budget", "64"),
                       ("f-irred-cert", "--d", "2", "--gleason-n", "3", "--k", "2", "--i",
                        "1", "--budget", "8")):
            run_cli(capsys, *warmup)
        K = cli._field(orbits.gleason(2, 3).coeffs)
        assert {(2, 2, 1), (2, 5, 1), (2, 7, 2)} <= set(K._factors)
        assert run_cli(capsys, *argv) == cold
        assert cold[0] == code
