"""Command-line front end tying the library together.

Subcommands: annihilate, chain, verify-spectral, factor, construct,
contractivity, cascade, check-convergence, spline, identity-tests. Each one
returns its report, a JSON object with an "ok" flag (cascade may return CSV
data instead when asked), and run writes it. Exit codes: 0 the report is ok
(CSV data counts as ok), 1 a verification failed, 2 malformed input
("error: <reason>" on stderr), 3 any other exception, an internal error.

Small Laurent polynomials are accepted inline: terms "c*z^k" joined by + or
-, with "(z+1)/2"-style sugar (a parenthesized sum, optional ^n, optional
/int or /int^int). Parser errors cite the offending position.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .analysis import check_contractive, check_convergence
from .analysis import cascade as run_cascade
from .construct import synthesize
from .exactalg import LaurentPoly, NotDivisible, _decimal_int, rat_from_str
from .factor import NotAnnihilated, taylor_factorize, verify_spectral_chain
from .polybasis import Poly, PolyVec, difference_split_check
from .splines import spline_chain, spline_mask, spline_verify
from .subdivision import DyadicGrid, Mask, _float_from_str
from .taylor import (
    Chain,
    TaylorOperator,
    allones_operator,
    annihilator,
    chain_for,
    classical_operator,
    delta_operator,
)


class MalformedInput(Exception):
    """Anything unreadable on the way in: files, JSON shapes, inline text."""


# ---------------------------------------------------------------------------
# Inline Laurent grammar


_DIGITS = frozenset("0123456789")  # str.isdigit would also take superscripts


class _LaurentParser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def fail(self, msg: str):
        raise MalformedInput(f"inline polynomial, position {self.i}: {msg}")

    def peek(self) -> str | None:
        return self.text[self.i] if self.i < len(self.text) else None

    def advance(self) -> str:
        c = self.text[self.i]
        self.i += 1
        return c

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def expect(self, c: str) -> None:
        if self.peek() != c:
            self.fail(f"expected {c!r}")
        self.advance()

    def parse(self) -> LaurentPoly:
        self.skip_ws()
        if self.peek() == "(":
            out = self.parse_group()
        else:
            out = self.parse_sum(stop_at_close=False)
        self.skip_ws()
        if self.i != len(self.text):
            self.fail("unexpected trailing input")
        return out

    def parse_group(self) -> LaurentPoly:
        self.expect("(")
        out = self.parse_sum(stop_at_close=True)
        self.skip_ws()
        self.expect(")")
        self.skip_ws()
        if self.peek() == "^":
            self.advance()
            out = out ** self.parse_int()
            self.skip_ws()
        if self.peek() == "/":
            self.advance()
            self.skip_ws()
            den = self.parse_int()
            self.skip_ws()
            if self.peek() == "^":
                self.advance()
                den = den ** self.parse_int()
            if den == 0:
                self.fail("zero denominator")
            out = out / den
        return out

    def parse_sum(self, stop_at_close: bool) -> LaurentPoly:
        total = LaurentPoly.zero()
        self.skip_ws()
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
        while True:
            term = self.parse_term()
            total = total + (term * sign)
            self.skip_ws()
            c = self.peek()
            if c is None or (stop_at_close and c == ")"):
                return total
            if c == "+":
                sign = 1
            elif c == "-":
                sign = -1
            else:
                self.fail(f"expected '+' or '-', got {c!r}")
            self.advance()
            self.skip_ws()

    def parse_term(self) -> LaurentPoly:
        self.skip_ws()
        c = self.peek()
        if c == "z":
            return self.parse_zpow(Fraction(1))
        if c in _DIGITS:
            coef = self.parse_rational()
            self.skip_ws()
            if self.peek() == "*":
                self.advance()
                self.skip_ws()
                if self.peek() != "z":
                    self.fail("expected 'z' after '*'")
                return self.parse_zpow(coef)
            return LaurentPoly.constant(coef)
        self.fail("expected a coefficient or 'z'")

    def parse_zpow(self, coef: Fraction) -> LaurentPoly:
        self.expect("z")
        e = 1
        if self.peek() == "^":
            self.advance()
            e = self.parse_int(signed=True)
        return LaurentPoly.monomial(e, coef)

    def parse_int(self, signed: bool = False) -> int:
        """A digit run, after a "-" if signed, by _decimal_int's rule."""
        start = self.i
        if signed and self.peek() == "-":
            self.advance()
        digits = self.i
        while self.peek() in _DIGITS:
            self.advance()
        if digits == self.i:
            self.fail("expected a number")
        try:
            return _decimal_int(self.text[start : self.i], "a number")
        except ValueError as exc:
            self.i = start
            self.fail(str(exc))

    def parse_rational(self) -> Fraction:
        n = self.parse_int()
        if self.peek() == "/":
            save = self.i
            self.advance()
            if self.peek() in _DIGITS:
                den = self.parse_int()
                if den == 0:
                    self.fail("zero denominator")
                return Fraction(n, den)
            self.i = save
        return Fraction(n)


def parse_laurent(text: str) -> LaurentPoly:
    return _LaurentParser(text).parse()


# ---------------------------------------------------------------------------
# Input plumbing


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInput(f"{path} nests JSON too deeply to read") from exc


def _from_file(cls, path: str, label: str | None = None):
    """cls.from_json of the JSON in a file. A KeyError, TypeError or ValueError
    (a file that is not UTF-8 included) is malformed input, reported under
    label (default: the path)."""
    try:
        return cls.from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{label or path}: {exc}") from exc


def _parse_preset_params(body: str, spec: str) -> dict[str, int]:
    params = {}
    if body:
        for piece in body.split(","):
            if "=" not in piece:
                raise MalformedInput(f"preset {spec!r}: expected k=v pairs")
            k, v = piece.split("=", 1)
            k = k.strip()
            if k in params:
                raise MalformedInput(f"preset {spec!r}: {k} is given twice")
            try:
                params[k] = _decimal_int(v, k)
            except ValueError as exc:
                raise MalformedInput(f"preset {spec!r}: {v!r} is not an integer") from exc
    return params


def _taylor_from_preset(spec: str) -> TaylorOperator:
    name, _, body = spec.partition(":")
    params = _parse_preset_params(body, spec)
    makers = {"delta": delta_operator, "classical": classical_operator, "allones": allones_operator}
    if name not in makers:
        raise MalformedInput(f"unknown operator preset {name!r}")
    if set(params) != {"d"}:
        raise MalformedInput(f"operator preset {name!r} takes exactly d=<int>")
    return makers[name](params["d"])


def _spline_preset(spec: str, what: str, make):
    """make(r, d) for a preset 'spline:r=<int>,d=<int>'."""
    params = _parse_preset_params(spec.partition(":")[2], spec)
    if set(params) != {"r", "d"}:
        raise MalformedInput(f"{what} preset spline takes r=<int>,d=<int>")
    return make(params["r"], params["d"])


def _load_taylor_arg(spec: str) -> TaylorOperator:
    if os.path.exists(spec):
        return _from_file(TaylorOperator, spec)
    if ":" in spec:
        return _taylor_from_preset(spec)
    raise MalformedInput(f"{spec!r} is neither a file nor an operator preset")


def _load_mask_arg(spec: str) -> Mask:
    if os.path.exists(spec):
        return _from_file(Mask, spec)
    if spec.startswith("spline:"):
        return _spline_preset(spec, "mask", spline_mask)
    raise MalformedInput(f"{spec!r} is neither a file nor a mask preset")


def _load_chain_arg(spec: str) -> Chain:
    if os.path.exists(spec):
        return _from_file(Chain, spec)
    if spec.startswith("spline:"):
        return _spline_preset(spec, "chain", spline_chain)
    if ":" in spec:
        return chain_for(_taylor_from_preset(spec))
    raise MalformedInput(f"{spec!r} is neither a file nor a chain preset")


def _load_mask_and_chain(args) -> tuple[Mask, Chain]:
    """--mask and --chain, which must have one dimension."""
    mask = _load_mask_arg(args.mask)
    chain = _load_chain_arg(args.chain)
    if chain.d != mask.d:
        raise MalformedInput(f"mask has dimension {mask.d + 1}, chain has {chain.d + 1}")
    return mask, chain


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a_s, b_s = text.split(",")
        a, b = _decimal_int(a_s, "a"), _decimal_int(b_s, "b")
    except ValueError as exc:
        raise MalformedInput(f"window must be 'a,b' with integers, got {text!r}") from exc
    if a >= b:
        raise MalformedInput(f"window must satisfy a < b, got {text!r}")
    return a, b


def _int_arg(text: str) -> int:
    """The argparse type of every integer flag, with argparse's own message."""
    try:
        return _decimal_int(text, "an integer flag")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _float_arg(text: str) -> float:
    """The argparse type of every float flag, with argparse's own message."""
    try:
        return _float_from_str(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _parse_indexed(flag: str, items: list[str] | None, what: str, read) -> dict:
    """{(j, k): read(VALUE)} for the 'j,k:VALUE' items of --g or --constant."""
    out = {}
    for item in items or []:
        head, sep, body = item.partition(":")
        if not sep:
            raise MalformedInput(f"{flag} expects 'j,k:{what}', got {item!r}")
        try:
            j_s, k_s = head.split(",")
            key = (_decimal_int(j_s, "j"), _decimal_int(k_s, "k"))
        except ValueError as exc:
            raise MalformedInput(f"{flag} expects integer 'j,k', got {head!r}") from exc
        try:
            out[key] = read(body)
        except ValueError as exc:
            raise MalformedInput(f"{flag} {item!r}: {exc}") from exc
    return out


def _emit(args, report: dict | str) -> None:
    """Write a report as JSON, or CSV text as it is, to --out or stdout."""
    if not isinstance(report, str):
        report = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_annihilate(args) -> dict:
    if bool(args.vec) == bool(args.chain):
        raise MalformedInput("annihilate needs exactly one of --vec or --chain")
    if args.vec:
        vec = _from_file(PolyVec, args.vec)
    else:
        vec = _load_chain_arg(args.chain).last
    return {"ok": True, "taylor": annihilator(vec).to_json()}


def _cmd_chain(args) -> dict:
    op = _load_taylor_arg(args.taylor)
    constants = _parse_indexed("--constant", args.constant, "RATIONAL", rat_from_str)
    return {"ok": True, "chain": chain_for(op, constants).to_json()}


def _cmd_verify_spectral(args) -> dict:
    report = verify_spectral_chain(*_load_mask_and_chain(args))
    return {"ok": report.ok, "spectral": report.to_json()}


def _cmd_factor(args) -> dict:
    mask, chain = _load_mask_and_chain(args)
    scale = rat_from_str(args.scale) if args.scale else None
    try:
        fac = taylor_factorize(mask, chain, scale)
    except (NotAnnihilated, NotDivisible) as exc:
        return {"ok": False, "error": str(exc)}
    return {
        "ok": True,
        "factorization": fac.to_json(),
        # taylor_factorize's exact divisions prove the identity, or it raises.
        "checks": {"identity": True},
    }


def _cmd_construct(args) -> dict:
    op = _load_taylor_arg(args.taylor)
    if args.hdd_file:
        seed = _from_file(LaurentPoly, args.hdd_file, label="seed polynomial")
    else:
        seed = parse_laurent(args.hdd)
    g = _parse_indexed("--g", args.g, "POLY", parse_laurent)
    try:
        result = synthesize(op, seed, g, strategy=args.strategy)
    except NotDivisible as exc:
        return {"ok": False, "error": str(exc)}
    return {
        "ok": True,
        "bundle": result.to_json(),
        "checks": {
            # unfactor's exact divisions, inside synthesize, prove the identity.
            "identity": True,
            "strategy": result.strategy,
        },
    }


def _cmd_contractivity(args) -> dict:
    mask = _load_mask_arg(args.mask)
    report = check_contractive(mask, n_max=args.n_max)
    return {"ok": report.contractive, "contractivity": report.to_json()}


def _cmd_cascade(args) -> dict | str:
    mask = _load_mask_arg(args.mask)
    window = _parse_window(args.window)
    if args.init == "delta":
        init = "delta"
    else:
        init = _from_file(DyadicGrid, args.init)
        if init.is_exact and not args.exact:
            raise MalformedInput(f"{args.init}: an exact grid needs --exact")
        if args.exact and not init.is_exact:
            raise MalformedInput(f"{args.init}: a float grid cannot be refined with --exact")
    final = run_cascade(mask, args.levels, init, window, exact=args.exact)[-1]
    if args.format == "csv":
        return final.to_csv()
    return {"ok": True, "grid": final.to_json()}


def _cmd_check_convergence(args) -> dict:
    mask = _load_mask_arg(args.mask)
    window = _parse_window(args.window)
    taylor = _load_taylor_arg(args.taylor) if args.taylor else None
    report = check_convergence(
        mask,
        levels=args.levels,
        window=window,
        ratio_bound=args.ratio_bound,
        residual_tol=args.residual_tol,
        taylor=taylor,
    )
    return {"ok": report.ok, "convergence": report.to_json()}


def _cmd_spline(args) -> dict:
    mask = spline_mask(args.r, args.d)
    chain = spline_chain(args.r, args.d)
    payload = {"ok": True, "mask": mask.to_json(), "chain": chain.to_json()}
    if args.verify:
        report, fac = spline_verify(args.r, args.d)
        payload.update(ok=report.ok, report=report.to_json(), factor=fac.factor.to_json())
    return payload


def _random_poly(rng: random.Random, max_degree: int) -> Poly:
    deg = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return Poly(coeffs)


def _random_operator(rng: random.Random, d: int) -> TaylorOperator:
    w = []
    for j in range(1, d + 1):
        row = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(j - 1)]
        row.append(Fraction(1))
        w.append(tuple(row))
    return TaylorOperator(tuple(w))


_IDENTITY_MAX_DEGREE = 8
_IDENTITY_MAX_N = 10


def _cmd_identity_tests(args) -> dict:
    if args.polys < 1:
        raise MalformedInput(f"--polys must be at least 1, got {args.polys}")
    rng = random.Random(args.seed)
    split_total = 0
    split_ok = True
    for _ in range(args.polys):
        p = _random_poly(rng, _IDENTITY_MAX_DEGREE)
        lo = max(p.degree, 1)
        for n in range(lo, _IDENTITY_MAX_N + 1):
            split_total += 1
            if not difference_split_check(p, n):
                split_ok = False
    inv_ok = True
    inv_total = 50
    for _ in range(inv_total):
        d = rng.randint(1, 5)
        inv = _random_operator(rng, d).symbol_inverse
        for j in range(d + 1):
            for l in range(d + 1):
                # The entry's value at z = 1 is its numerator sum over its denominator.
                entry, want = inv[j][l], 1 if l >= j else 0
                if sum(entry._num) != want * entry._den:
                    inv_ok = False
    return {
        "ok": split_ok and inv_ok,
        "checks": {
            "difference_split": {
                "polynomials": args.polys,
                "identities": split_total,
                "ok": split_ok,
            },
            "inverse_numerators_at_one": {"operators": inv_total, "ok": inv_ok},
        },
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-forge",
        description="Construct, factorize, verify and analyze Hermite subdivision schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("annihilate", help="operator annihilating a graded vector or chain")
    p.add_argument("--vec", help="graded polynomial vector (JSON file)")
    p.add_argument("--chain", help="chain (JSON file or preset); its top vector is used")
    add_out(p)
    p.set_defaults(func=_cmd_annihilate)

    p = sub.add_parser("chain", help="canonical chain of a Taylor operator")
    p.add_argument("--taylor", required=True, help="operator JSON file or preset name:d=N")
    p.add_argument(
        "--constant",
        action="append",
        help="free antidifference constant 'j,k:RATIONAL' (repeatable)",
    )
    add_out(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("verify-spectral", help="check S_A v-hat_j = 2^-j v-hat_j for a chain")
    p.add_argument("--mask", required=True, help="mask JSON file or preset")
    p.add_argument("--chain", required=True, help="chain JSON file or preset")
    add_out(p)
    p.set_defaults(func=_cmd_verify_spectral)

    p = sub.add_parser("factor", help="factor a mask through a chain's Taylor operator")
    p.add_argument("--mask", required=True, help="mask JSON file or preset")
    p.add_argument("--chain", required=True, help="chain JSON file or preset")
    p.add_argument("--scale", help="factorization scale (default 2^-d)")
    add_out(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("construct", help="synthesize a convergent scheme from an operator")
    p.add_argument("--taylor", required=True, help="operator JSON file or preset name:d=N")
    seed_group = p.add_mutually_exclusive_group(required=True)
    seed_group.add_argument("--hdd", help="corner seed polynomial, inline (e.g. \"(z+1)/2\")")
    seed_group.add_argument("--hdd-file", help="corner seed polynomial, JSON file")
    p.add_argument(
        "--g",
        action="append",
        help="free lower parameter 'j,k:POLY' with inline POLY (repeatable)",
    )
    p.add_argument(
        "--strategy",
        choices=("auto", "system", "recurrence"),
        default="auto",
        help="last-row strategy (default auto)",
    )
    add_out(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("contractivity", help="joint/diagonal contraction certificate")
    p.add_argument("--mask", required=True, help="factor mask JSON file or preset")
    p.add_argument("--n-max", type=_int_arg, default=8, help="largest iterate to try (default 8)")
    add_out(p)
    p.set_defaults(func=_cmd_contractivity)

    p = sub.add_parser("cascade", help="render Hermite data on a fine dyadic grid")
    p.add_argument("--mask", required=True, help="mask JSON file or preset")
    p.add_argument("--levels", type=_int_arg, default=8)
    p.add_argument("--init", default="delta", help="'delta' or a DyadicGrid JSON file")
    p.add_argument(
        "--window",
        default="-4,4",
        help="integer window 'a,b' (default -4,4); write a negative a as --window=-4,4",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--exact", action="store_true", help="carry exact rationals throughout")
    add_out(p)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("check-convergence", help="empirical convergence diagnostics")
    p.add_argument("--mask", required=True, help="mask JSON file or preset")
    p.add_argument("--levels", type=_int_arg, default=8)
    p.add_argument(
        "--window",
        default="-4,4",
        help="integer window 'a,b' (default -4,4); write a negative a as --window=-4,4",
    )
    p.add_argument("--ratio-bound", type=_float_arg, default=0.9)
    p.add_argument("--residual-tol", type=_float_arg, default=1e-4)
    p.add_argument(
        "--taylor",
        help="operator whose w-weights pair the residual rows (file or preset; "
        "default difference-type)",
    )
    add_out(p)
    p.set_defaults(func=_cmd_check_convergence)

    p = sub.add_parser("spline", help="B-spline Hermite scheme generator and verifier")
    p.add_argument("--r", type=_int_arg, required=True, help="spline degree")
    p.add_argument("--d", type=_int_arg, required=True, help="highest derivative carried")
    p.add_argument("--verify", action="store_true", help="run the full verification bundle")
    add_out(p)
    p.set_defaults(func=_cmd_spline)

    p = sub.add_parser("identity-tests", help="exact difference-split and inverse-symbol suites")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--polys", type=_int_arg, default=100)
    add_out(p)
    p.set_defaults(func=_cmd_identity_tests)

    return parser


_parser = None  # built on the first run, then shared by every later one


def run(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # argparse (Python 3.11) reads "--flag=--" as an empty list, not "--".
        if any(v == [] or isinstance(v, list) and [] in v for v in vars(args).values()):
            raise MalformedInput("an option was given '--' as its value")
        report = args.func(args)
        _emit(args, report)
    except (MalformedInput, ValueError, OSError) as exc:
        # Every library refusal of a value is a ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Not a verdict on the input: a fault of the program itself.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if isinstance(report, str) or report["ok"] else 1


if __name__ == "__main__":
    sys.exit(run())
