"""Command-line surface, driven through main() with captured stdio."""

import io
import itertools
import json
import re
import sys

import pytest

from cutdown.cli import main
from cutdown.engine import SequenceSpec, generate
from cutdown.ranking import unrank_lyndon
from cutdown.words import format_word, least_rotation

from refdata import CUT_N6_L46, CUT_N6_L52, DB_N3_K4, verify_reference


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    # stdin (str or bytes) gets a .buffer, as a real standard input has
    if stdin is not None:
        if isinstance(stdin, str):
            stdin = stdin.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_reference(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "6", "--k", "2",
                             "--len", "46")
    assert code == 0
    assert out == CUT_N6_L46 + "\n"


def test_generate_csv_format(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "3", "--k", "4",
                           "--len", "64", "--format", "csv")
    assert code == 0
    symbols = out.strip().split(",")
    assert len(symbols) == 64
    assert "".join(symbols) in DB_N3_K4 + DB_N3_K4


def test_generate_successor_mode(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "6", "--len", "46",
                           "--mode", "successor", "--start", "000001")
    assert code == 0
    assert len(out.strip()) == 46


def test_generate_successor_off_cycle_start_exit_2(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "6", "--len", "46",
                             "--mode", "successor", "--start", "111111")
    assert code == 2
    assert out == ""
    assert "not on the target cycle" in err


def test_generate_kary_successor_off_cycle_start_exit_2(capsys):
    # weight 9 is above m for n=3, k=4, L=50
    code, out, err = run_cli(capsys, "generate", "--n", "3", "--k", "4",
                             "--len", "50", "--mode", "successor",
                             "--start", "333")
    assert code == 2
    assert out == ""
    assert "not on the target cycle" in err


def test_off_cycle_start_message_names_symbols_above_9(capsys):
    # the message writes the window as the command line reads it
    code, out, err = run_cli(capsys, "generate", "--n", "2", "--k", "12",
                             "--len", "100", "--mode", "successor",
                             "--start", "11,11", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "start window 11,11 is not on the target cycle" in err


def test_generate_range_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "6", "--k", "2",
                             "--len", "512")
    assert code == 2
    assert "64 < L <= 4096" not in err  # message names the n=6 interval
    assert "32 < L <= 64" in err


def test_generate_digits_rejected_for_wide_alphabets(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "2", "--k", "12",
                           "--len", "100", "--format", "digits")
    assert code == 2
    assert "csv" in err


def test_params_json(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "6", "--k", "2",
                           "--len", "46", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 6, "k": 2, "L": 46, "m": 4, "h": 6, "t": 1,
                       "s": 5, "markers": ["001001", "010101"]}
    assert list(payload) == ["n", "k", "L", "m", "h", "t", "s", "markers"]


def test_params_text(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "6", "--len", "46")
    assert code == 0
    assert "m" in out and "001001" in out


def test_verify_accepts_reference(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--k", "2",
                           stdin=CUT_N6_L52, monkeypatch=monkeypatch)
    assert code == 0
    assert "ok" in out


@pytest.mark.parametrize("data, extra, code, out, err", [
    ("0120", (), 1, "invalid: symbol out of range at position 3\n", ""),
    ("0101", (), 1,
     "invalid: window 01 repeats at positions 1 and 3 (cyclic)\n", ""),
    ("0110", ("--len", "5"), 1, "invalid: length 4 does not match --len\n",
     ""),
    (" \n\t\n", (), 2, "", "error: empty sequence\n"),
], ids=["out-of-range", "repeat", "length", "whitespace"])
def test_verify_text_reports(capsys, monkeypatch, data, extra, code, out,
                             err):
    got = run_cli(capsys, "verify", "--n", "2", *extra, stdin=data,
                  monkeypatch=monkeypatch)
    assert got == (code, out, err)


def test_verify_rejects_duplicate(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--k", "2", "--json",
                           stdin="00100", monkeypatch=monkeypatch)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["first_duplicate"] == {"window": "000", "positions": [4, 5]}


def test_verify_bad_order_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "verify", "--n", "0", stdin="011",
                             monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "n >= 1" in err


@pytest.mark.parametrize("name", ["missing", "directory"])
def test_verify_unreadable_input_exit_2(capsys, tmp_path, name):
    # an input that cannot be opened is an argument error, not a rejection
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    code, out, err = run_cli(capsys, "verify", "--n", "3", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err


def test_verify_reads_file(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(CUT_N6_L46 + "\n")
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--len", "46",
                           str(path))
    assert code == 0


def test_verify_csv_input(capsys, monkeypatch, tmp_path):
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--k", "4",
                         stdin="0,3,1,2", monkeypatch=monkeypatch)
    assert code == 0
    # whitespace around a field is not part of it
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--k", "12",
                           stdin="0, 1 ,2\n", monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("ok: 3 symbols")
    # one symbol of an alphabet beyond 2^64 needs no k-byte table
    k = 2 ** 64 + 3
    code, report = verify_both_ways(
        capsys, monkeypatch, tmp_path, b"5",
        ["verify", "--n", "1", "--k", str(k), "--json"])
    assert (code, report) == (0, reference_json([5], 1, k, None))
    # beyond k = 10 the input is csv, comma or not: 11 is one symbol
    code, report = verify_both_ways(
        capsys, monkeypatch, tmp_path, b"11",
        ["verify", "--n", "1", "--k", "12", "--json"])
    assert (code, report) == (0, reference_json([11], 1, 12, None))


def test_generate_pipe_verify(capsys, monkeypatch):
    for n, k, L in [(5, 2, 20), (6, 2, 46), (3, 4, 50), (3, 3, 20)]:
        code, out, _ = run_cli(capsys, "generate", "--n", str(n), "--k",
                               str(k), "--len", str(L))
        assert code == 0
        code, _, _ = run_cli(capsys, "verify", "--n", str(n), "--k", str(k),
                             "--len", str(L), stdin=out,
                             monkeypatch=monkeypatch)
        assert code == 0


@pytest.mark.parametrize("data", [b"0\xd9\xa31", b"01x10", b"01\x0510",
                                  b"0,\xd9\xa3,1"],
                         ids=["arabic-indic-digit", "letter", "control-byte",
                              "csv-arabic-indic-digit"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_verify_rejects_non_digit_bytes(capsys, monkeypatch, tmp_path,
                                        data, source):
    # the same bytes give the same exit status and message from either
    # source; U+0663 is not symbol 3 and \x05 is not symbol 5
    argv = ["verify", "--n", "1", "--k", "4", "--json"]
    if source == "file":
        path = tmp_path / "seq.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *argv, str(path))
    else:
        code, out, err = run_cli(capsys, *argv, stdin=data,
                                 monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    bad = next(b for b in data if not (b in b"0123456789,"))
    assert err == (f"error: unexpected byte 0x{bad:02x} in the symbols: only "
                   f"ASCII digits, commas and whitespace may appear\n")


@pytest.mark.parametrize("data", [b"0,1_0,2", b"0,+1,2", b"0,-1,2"],
                         ids=["underscore", "plus", "minus"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_verify_rejects_csv_fields_int_would_take(capsys, monkeypatch,
                                                  tmp_path, data, source):
    # int() reads "1_0" as 10 and "+1" as 1; a csv field is digits only
    argv = ["verify", "--n", "1", "--k", "12"]
    if source == "file":
        path = tmp_path / "seq.csv"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *argv, str(path))
    else:
        code, out, err = run_cli(capsys, *argv, stdin=data,
                                 monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    bad = next(b for b in data if b not in b"0123456789,")
    assert err.startswith(f"error: unexpected byte 0x{bad:02x} in the symbols")


def test_verify_digits_with_whitespace(capsys, monkeypatch):
    # spaces, tabs, CR/LF, VT and FF separate nothing; digits above k-1 are
    # symbols out of range (exit 1), not input errors
    text = (" ".join(CUT_N6_L46[:20]) + "\r\n\t" + CUT_N6_L46[20:]
            + "\x0b\x0c\n")
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--len", "46",
                           stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("ok: 46 symbols")
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--json",
                           stdin="0190", monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["out_of_range_symbol"] == 3


def _cycle_window(n, k, L, at):
    # the window at position `at` of the default successor-mode cycle
    head = list(itertools.islice(
        generate(SequenceSpec(n=n, k=k, L=L, mode="successor")), at + n))
    return tuple(head[at:])


# (n, k, L): L < 64 is one short block; the long L run to more than three
# blocks (64, 64, 128, ...), and at k = 2 to full 8,192-symbol blocks
@pytest.mark.parametrize("n, k, L", [
    (6, 2, 46), (15, 2, 20000),
    (3, 4, 50), (6, 4, 4000),
    (2, 12, 50), (3, 12, 1700),
])
@pytest.mark.parametrize("mode", ["counter", "successor"])
def test_generate_writes_the_symbols_of_generate(capsys, n, k, L, mode):
    start = _cycle_window(n, k, L, 7) if mode == "successor" else None
    spec = SequenceSpec(n=n, k=k, L=L, mode=mode, start=start)
    symbols = list(generate(spec))
    assert len(symbols) == L
    argv = ["generate", "--n", str(n), "--k", str(k), "--len", str(L),
            "--mode", mode]
    if start is not None:
        argv += ["--start", format_word(start, k)]
    formats = ["digits", "csv"] if k <= 10 else ["csv"]
    for fmt in formats:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        sep = "" if fmt == "digits" else ","
        assert out == sep.join(map(str, symbols)) + "\n", fmt


def test_generate_csv_matches_digits(capsys):
    # 20,000 symbols cross the 8,192-symbol block ends of both encoders
    argv = ["generate", "--n", "15", "--len", "20000"]
    code, digits, _ = run_cli(capsys, *argv)
    code_csv, csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert (code, code_csv) == (0, 0)
    assert len(digits) == 20001
    assert csv == ",".join(digits.strip()) + "\n"


# the CLI reads 64 KiB blocks; a digit string has one symbol per byte
BLOCK = 1 << 16


def reference_json(symbols, n, k, L):
    report = verify_reference(symbols, n, k, expected_len=L)
    dup = None
    if report.first_duplicate is not None:
        window, positions = report.first_duplicate
        dup = {"window": format_word(window, k), "positions": list(positions)}
    return {"ok": report.ok, "length": report.length, "first_duplicate": dup,
            "out_of_range_symbol": report.out_of_range_symbol}


def verify_both_ways(capsys, monkeypatch, tmp_path, data, argv):
    # the same bytes from standard input (spooled) and from a file (read
    # again): same exit status, same report
    path = tmp_path / "seq.txt"
    path.write_bytes(data)
    from_file = run_cli(capsys, *argv, str(path))
    from_stdin = run_cli(capsys, *argv, stdin=data, monkeypatch=monkeypatch)
    assert from_file == from_stdin
    code, out, err = from_file
    assert err == ""
    return code, json.loads(out)


@pytest.mark.parametrize("fault", ["straddling-repeat", "third-block-symbol",
                                   "fifth-block-symbol", "wraparound-repeat",
                                   "none"])
def test_verify_faults_across_blocks(capsys, monkeypatch, tmp_path, fault):
    # more than four blocks with one planted fault, or none; the report
    # equals the dict-based reference's.  The first four blocks reach
    # k^(n-1) symbols, where the table is chosen, so the fifth is first
    # read by the marking pass
    n, L = 19, 300000
    seq = list(generate(SequenceSpec(n=n, k=2, L=L)))
    if fault == "straddling-repeat":
        # a window across the end of block 2 gets its last symbol flipped,
        # which makes it an earlier window; the windows before it are kept
        text = "".join(map(str, seq))
        dst = next(d for d in range(2 * BLOCK - 1, 2 * BLOCK - n, -1)
                   if 0 <= text.find(text[d:d + n - 1]
                                     + str(1 - seq[d + n - 1])) < d)
        seq[dst + n - 1] ^= 1
    elif fault.endswith("block-symbol"):
        bad = (2 if fault.startswith("third") else 4) * BLOCK + 100
        seq[bad] = 7
    elif fault == "wraparound-repeat":
        # one symbol fewer: the linear windows are still distinct, but a
        # window across the new end repeats
        seq.pop()
    data = "".join(map(str, seq)).encode() + b"\n"
    if fault in ("wraparound-repeat", "none"):
        # the first block holds fewer than the n - 1 wrapped symbols
        data = b" " * (BLOCK - 5) + data
    code, report = verify_both_ways(capsys, monkeypatch, tmp_path, data,
                                    ["verify", "--n", str(n), "--json"])
    assert report == reference_json(seq, n, 2, None)
    assert report["length"] == len(seq)
    if fault == "none":
        assert code == 0 and report["ok"]
        return
    assert code == 1
    if fault.endswith("block-symbol"):
        assert report["out_of_range_symbol"] == bad + 1
        return
    second = report["first_duplicate"]["positions"][1] - 1  # 0-based
    if fault == "straddling-repeat":
        assert second < 2 * BLOCK < second + n
    else:
        assert second > len(seq) - n  # no repeat among the linear windows


def test_verify_csv_field_across_a_block_end(capsys, monkeypatch, tmp_path):
    # the last two-digit field that starts in the first block of the csv,
    # padded to start at its last byte; a block of whitespace comes first,
    # and the format is found from the block after it
    n, k, L = 5, 12, 40000
    seq = list(generate(SequenceSpec(n=n, k=k, L=L)))
    fields = [str(c) for c in seq]
    offset, last = 0, None
    for i, field in enumerate(fields):
        if offset >= BLOCK:
            break
        if len(field) == 2:
            last = i, offset
        offset += len(field) + 1
    i, offset = last
    fields[i] = " " * (BLOCK - 1 - offset) + fields[i]
    data = b"\n" * BLOCK + ",".join(fields).encode() + b"\n"
    assert data[2 * BLOCK - 1:2 * BLOCK + 1].isdigit()
    argv = ["verify", "--n", str(n), "--k", str(k), "--len", str(L), "--json"]
    code, report = verify_both_ways(capsys, monkeypatch, tmp_path, data, argv)
    assert (code, report) == (0, reference_json(seq, n, k, L))
    # the same field cut in two by a space is no field at all
    broken = data[:2 * BLOCK] + b" " + data[2 * BLOCK:]
    path = tmp_path / "broken.csv"
    path.write_bytes(broken)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: unexpected byte 0x20 in the symbols")


@pytest.mark.parametrize("n", [1, 3], ids=["table", "set"])
def test_verify_digits_beyond_a_byte(capsys, monkeypatch, tmp_path, n):
    # csv at k = 300 whose symbols fit in a byte: standard input spools
    # them as bytes, one per symbol, and every pass reads bytes blocks
    # beyond k = 256.  Ten symbols at n = 1 reach the table.
    for data in (b" 2,9,8", b"0,0,1,0,0", b"0,1,2,3,4,5,6,7,8,9"):
        symbols = [int(c) for c in data.split(b",")]
        code, report = verify_both_ways(
            capsys, monkeypatch, tmp_path, data,
            ["verify", "--n", str(n), "--k", "300", "--json"])
        assert report == reference_json(symbols, n, 300, None)
        assert code == (0 if report["ok"] else 1)


def test_rank(capsys):
    code, out, _ = run_cli(capsys, "rank", "000101")
    assert code == 0
    assert out.strip() == "2"
    # beyond k = 10 a word is csv, comma or not: 11 is one symbol
    code, out, _ = run_cli(capsys, "rank", "--k", "12", "11")
    assert (code, out) == (0, "1\n")


def test_rank_64_bit_word(capsys):
    word = "0010111010011101" * 3 + "0110100111010110"
    code, out, _ = run_cli(capsys, "rank", word)
    assert code == 0
    assert unrank_lyndon(64, word.count("1"), int(out)) == \
        least_rotation(tuple(map(int, word)))


def test_rank_symbol_outside_alphabet_exit_2(capsys):
    # 100 at k = 12 is the symbol 100, not the word (1, 0, 0)
    for argv in (["0102"], ["--k", "12", "100"]):
        code, _, err = run_cli(capsys, "rank", *argv)
        assert code == 2
        assert "word over" in err


def test_rank_periodic_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "rank", "010101")
    assert code == 2
    assert "Lyndon" in err or "periodic" in err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--w", "4")
    assert code == 0 and out.strip() == "15"
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--w", "2",
                           "--lyndon")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "count", "--n", "80", "--w", "40")
    assert code == 0
    assert out.strip() == str(__import__("math").comb(80, 40))


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command, options", [
    ("generate", "--n --k --len --mode --start --format"),
    ("verify", "--n --k --len --json input"),
    ("params", "--n --k --len --json"),
    ("rank", "word --k"),
    ("count", "--n --w --k --lyndon"),
])
def test_subcommand_help_lists_its_options(capsys, monkeypatch, command,
                                           options):
    # every subcommand takes --k, with its help text, from one parent
    # parser, which must neither drop nor add an option
    monkeypatch.setenv("COLUMNS", "80")  # so no help line wraps
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  ([-\w]+)", out, re.MULTILINE)
    assert sorted(listed) == sorted(["-h", *options.split()])
    assert re.search(r"^  --k K +alphabet size \(default 2\)$", out,
                     re.MULTILINE)
