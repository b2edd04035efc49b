"""CLI subcommands, exit codes, and output determinism."""

import json
import time

import pytest

from pcfcert import cli, finitefield, orbits
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
