"""Command-line interface.

Subcommands: generate, verify, params, rank, count.  Sequences are written
linearly; reading them cyclically is the verifier's job.  Words and
sequences use digit strings for alphabets up to size 10 and comma-separated
decimals beyond that, and are read by the same rule: csv when k > 10 or
the text holds a comma, digits otherwise.  Digit strings are read and
written as bytes, a block at a time: only the ASCII digits and whitespace
may appear in them.  The commands leave n and k to the library, where
``words.check_ints`` refuses a non-int, n < 1 and k < 2 with one message,
and ``words.check_word`` a word off the alphabet.

`generate` writes each block of symbols to standard output's byte stream
as the engine makes it, from 64 up to 8,192 symbols: digits with one
`translate`, csv with one `join`.

`verify` reads its file or standard input in 64 KiB blocks and decodes
each one, digits with one `translate` and csv field by field, with a
field cut by a block end carried into the next block.  The decoded blocks
go straight to `engine.verify`, which reads a file again when a window
repeats and spools standard input to a temporary file.  So it holds the
k^n-byte window table and a block, never the whole input.

Exit status: 0 on success, 1 when `verify` rejects its input, 2 for
argument or range errors, including a successor-mode start window that is
not on the target cycle, and for an input file that cannot be read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from itertools import chain

from .counting import count_lyndon, count_strings
from .cutplan import cut_set, derive_params
from .engine import SequenceSpec, VerifyReport, _Blocks, _blocks, verify
from .ranking import rank_lyndon
from .words import format_word

_BLOCK = 1 << 16  # verify reads its input in blocks of this many bytes
_WHITESPACE = b" \t\n\r\x0b\x0c"
# ASCII digit -> symbol 0..9, every other byte -> 255; and back
_DECODE = bytes(b - 48 if 48 <= b <= 57 else 255 for b in range(256))
_ENCODE = bytes.maketrans(bytes(range(10)), b"0123456789")


def _decode(raw: Iterable[bytes], k: int) -> Iterator[bytes | list[int]]:
    """Decode blocks of text over an alphabet of size k into blocks of
    symbols: csv into lists when k > 10 or the first block that is not all
    whitespace holds a comma, digit strings into bytes of symbols 0..9
    otherwise.  A csv field cut by a block end is carried into the next
    block."""
    raw = iter(raw)
    for block in raw:
        if block.strip():
            break
    else:
        return
    if k > 10 or b"," in block:
        carry = b""
        for block in chain([block], raw):
            *fields, carry = (carry + block).split(b",")
            yield _csv_symbols(fields)
        yield _csv_symbols([carry])
        return
    for block in chain([block], raw):
        symbols = block.translate(_DECODE, _WHITESPACE)
        if 255 in symbols:
            raise _bad_byte(
                block.translate(None, b"0123456789" + _WHITESPACE)[0])
        yield symbols


def _csv_symbols(fields: list[bytes]) -> list[int]:
    # a field is a plain run of ASCII digits: no sign, no "_"
    fields = [part.strip() for part in fields]
    for part in fields:
        if part and not part.isdigit():
            raise _bad_byte(part.translate(None, b"0123456789")[0])
    return [int(part) for part in fields if part]


def _parse_word(text: str, k: int) -> tuple[int, ...]:
    return tuple(chain.from_iterable(_decode([os.fsencode(text)], k)))


class _FileBlocks:
    """The decoded blocks of a file, read afresh on every iteration."""

    def __init__(self, path: str, k: int) -> None:
        self.path, self.k = path, k

    def __iter__(self) -> Iterator[bytes | list[int]]:
        with open(self.path, "rb") as handle:
            yield from _decode(iter(partial(handle.read, _BLOCK), b""),
                               self.k)


def _bad_byte(byte: int) -> ValueError:
    return ValueError(f"unexpected byte 0x{byte:02x} in the symbols: only "
                      f"ASCII digits, commas and whitespace may appear")


def _cmd_generate(args: argparse.Namespace) -> int:
    fmt = args.format or ("digits" if args.k <= 10 else "csv")
    if fmt == "digits" and args.k > 10:
        raise ValueError("digits format is ambiguous for k > 10; use --format csv")
    start = _parse_word(args.start, args.k) if args.start else None
    spec = SequenceSpec(n=args.n, k=args.k, L=args.len, mode=args.mode,
                        start=start)
    blocks = _blocks(spec)
    sys.stdout.flush()
    out = sys.stdout.buffer
    if fmt == "digits":
        for block in blocks:
            out.write(bytes(block).translate(_ENCODE))
    else:
        sep = b""
        for block in blocks:
            out.write(sep + ",".join(map(str, block)).encode())
            sep = b","
    out.write(b"\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # a file is read again for each pass; verify spools standard input
    if args.input and args.input != "-":
        blocks = _FileBlocks(args.input, args.k)
    else:
        blocks = _decode(iter(partial(sys.stdin.buffer.read, _BLOCK), b""),
                         args.k)
    report = verify(_Blocks(blocks), args.n, args.k, expected_len=args.len)
    if args.json:
        print(json.dumps(_report_json(report, args.k)))
    else:
        print(_report_text(report, args.k))
    return 0 if report.ok else 1


def _report_json(report: VerifyReport, k: int) -> dict:
    payload = report._asdict()
    if report.first_duplicate is not None:
        window, positions = report.first_duplicate
        payload["first_duplicate"] = {"window": format_word(window, k),
                                      "positions": list(positions)}
    return payload


def _report_text(report: VerifyReport, k: int) -> str:
    if report.ok:
        return f"ok: {report.length} symbols, all cyclic windows distinct"
    if report.out_of_range_symbol is not None:
        return (f"invalid: symbol out of range at position "
                f"{report.out_of_range_symbol}")
    if report.first_duplicate is not None:
        window, (first, second) = report.first_duplicate
        return (f"invalid: window {format_word(window, k)} repeats at "
                f"positions {first} and {second} (cyclic)")
    return f"invalid: length {report.length} does not match --len"


def _cmd_params(args: argparse.Namespace) -> int:
    params = derive_params(args.n, args.k, args.len)
    cuts = cut_set(params.s, params.n)
    markers = [format_word(w, args.k) for w in cuts.markers]
    if args.json:
        print(json.dumps(dict(params._asdict(), markers=markers)))
    else:
        width = 7  # len("markers"), the longest name
        for name, value in params._asdict().items():
            print(f"{name:<{width}} {value}")
        print(f"{'markers':<{width}} {' '.join(markers) if markers else '-'}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    word = _parse_word(args.word, args.k)
    print(rank_lyndon(word, args.k))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    count = count_lyndon if args.lyndon else count_strings
    print(count(args.n, args.w, args.k))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutdown",
        description="Generate and inspect cut-down de Bruijn sequences: "
                    "cyclic k-ary sequences of any length L with "
                    "k^(n-1) < L <= k^n and no repeated length-n window.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alphabet = argparse.ArgumentParser(add_help=False)
    alphabet.add_argument("--k", type=int, default=2,
                          help="alphabet size (default 2)")
    command = partial(sub.add_parser, parents=[alphabet])  # all take --k

    gen = command("generate", help="emit a length-L cut-down sequence")
    gen.add_argument("--n", type=int, required=True, help="window length")
    gen.add_argument("--len", type=int, required=True, metavar="L",
                     help="target length, k^(n-1) < L <= k^n")
    gen.add_argument("--mode", choices=("counter", "successor"),
                     default="counter",
                     help="counter: join the first t cycles met; "
                          "successor: context-free rule")
    gen.add_argument("--start", help="start window for successor mode")
    gen.add_argument("--format", choices=("digits", "csv"),
                     help="output format (default digits for k <= 10)")
    gen.set_defaults(func=_cmd_generate)

    ver = command("verify",
                  help="check that every cyclic window occurs at most once")
    ver.add_argument("--n", type=int, required=True, help="window length")
    ver.add_argument("--len", type=int, default=None, metavar="L",
                     help="also require this exact length")
    ver.add_argument("--json", action="store_true", help="JSON report")
    ver.add_argument("input", nargs="?", default=None,
                     help="input file (default: standard input)")
    ver.set_defaults(func=_cmd_verify)

    par = command("params", help="show the derived cut parameters and markers")
    par.add_argument("--n", type=int, required=True)
    par.add_argument("--len", type=int, required=True, metavar="L")
    par.add_argument("--json", action="store_true", help="JSON output")
    par.set_defaults(func=_cmd_params)

    rnk = command("rank",
                  help="1-based lexicographic rank of a word's Lyndon "
                       "rotation among Lyndon words of equal length and "
                       "weight")
    rnk.add_argument("word", help="an aperiodic word")
    rnk.set_defaults(func=_cmd_rank)

    cnt = command("count", help="exact string / Lyndon word counts")
    cnt.add_argument("--n", type=int, required=True, help="word length")
    cnt.add_argument("--w", type=int, required=True, help="weight")
    cnt.add_argument("--lyndon", action="store_true",
                     help="count Lyndon words instead of all strings")
    cnt.set_defaults(func=_cmd_count)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
