"""BLIF (Berkeley Logic Interchange Format) reader and writer.

The MCNC benchmarks the paper uses are distributed as BLIF; this module
lets the reproduction exchange circuits with any classical logic-synthesis
tool (SIS, ABC, ...).  Only the combinational subset is supported:
``.model``, ``.inputs``, ``.outputs``, ``.names``, ``.end``.

Parse failures raise :class:`BlifError` (a :class:`ValueError` subclass,
so existing broad handlers keep working) carrying the 1-based source
``line`` of the offending construct — essential when the text being
rejected is a journaled fragment or a worker reply rather than a file a
human can eyeball.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..boolfunc import TruthTable
from ..runstate.atomic import atomic_write
from .netlist import Network

__all__ = ["BlifError", "parse_blif", "read_blif", "write_blif", "to_blif"]


class BlifError(ValueError):
    """Structured BLIF parse failure: message plus source line number.

    ``line`` is the 1-based number of the first physical line of the
    offending logical line (continuations collapse onto their first
    line), or ``None`` for whole-file problems reported at EOF.
    """

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(
            message if line is None else f"line {line}: {message}"
        )
        self.line = line
        self.reason = message


def _tokenize(text: str) -> List[Tuple[int, List[str]]]:
    """Split into ``(line_number, tokens)`` logical lines.

    Continuations are joined (keeping the first physical line's number),
    comments stripped, blank lines dropped.
    """
    logical: List[Tuple[int, str]] = []
    pending = ""
    pending_start = 0
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line and not pending:
            continue
        if not pending:
            pending_start = number
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        logical.append((pending_start, pending + line))
        pending = ""
    if pending:
        logical.append((pending_start, pending))
    return [
        (number, line.split()) for number, line in logical if line.split()
    ]


def parse_blif(text: str) -> Network:
    """Parse BLIF text into a :class:`Network`.

    Single-output cover semantics: rows are input cubes (``0``, ``1``,
    ``-``) followed by the output value; an all-``1`` output polarity is
    assumed (``0``-polarity covers are complemented, as in SIS).

    Raises :class:`BlifError` (with a line number) for undefined
    signals, duplicate ``.model``/``.outputs`` lines, unsupported
    constructs, malformed cubes and truncated input (no ``.end``).
    """
    lines = _tokenize(text)
    model_name = "blif"
    model_line: Optional[int] = None
    outputs_line: Optional[int] = None
    inputs: List[str] = []
    outputs: List[str] = []
    # (fanins, target, rows as (cube, out, line), line of .names header)
    Rows = List[Tuple[str, str, int]]
    covers: List[Tuple[List[str], str, Rows, int]] = []

    i = 0
    ended = False
    current: Optional[Tuple[List[str], str, Rows, int]] = None
    while i < len(lines):
        number, tokens = lines[i]
        i += 1
        keyword = tokens[0]
        if ended:
            raise BlifError(
                f"content after .end: {' '.join(tokens)}", number
            )
        if keyword == ".model":
            if model_line is not None:
                raise BlifError(
                    f"duplicate .model line (first at line {model_line})",
                    number,
                )
            model_line = number
            model_name = tokens[1] if len(tokens) > 1 else model_name
        elif keyword == ".inputs":
            inputs.extend(tokens[1:])
        elif keyword == ".outputs":
            if outputs_line is not None:
                raise BlifError(
                    f"duplicate .outputs line (first at line {outputs_line})",
                    number,
                )
            outputs_line = number
            outputs.extend(tokens[1:])
        elif keyword == ".names":
            signals = tokens[1:]
            if not signals:
                raise BlifError(".names without a target signal", number)
            current = (signals[:-1], signals[-1], [], number)
            covers.append(current)
        elif keyword == ".end":
            current = None
            ended = True
        elif keyword.startswith("."):
            raise BlifError(
                f"unsupported BLIF construct {keyword!r}", number
            )
        else:
            if current is None:
                raise BlifError(
                    f"cube line outside .names: {' '.join(tokens)}", number
                )
            if len(current[0]) == 0:
                # Constant: single token '1' or '0'.
                current[2].append(("", tokens[0], number))
            else:
                if len(tokens) != 2:
                    raise BlifError(
                        f"malformed cube line: {' '.join(tokens)}", number
                    )
                current[2].append((tokens[0], tokens[1], number))
    if not ended:
        raise BlifError(
            "truncated BLIF: no .end directive "
            f"(saw {len(lines)} logical lines)"
        )

    net = Network(model_name)
    for pi in inputs:
        net.add_input(pi)

    # .names sections may reference signals defined later: add nodes with a
    # worklist that defers covers until all their fanins exist.
    pending = list(covers)
    while pending:
        progressed = False
        deferred = []
        for fanins, target, rows, number in pending:
            if all(net.has_signal(fi) for fi in fanins):
                try:
                    table = _cover_to_table(fanins, rows)
                except BlifError:
                    raise  # already carries the offending cube's line
                except ValueError as exc:
                    raise BlifError(str(exc), number) from None
                net.add_node(target, fanins, table)
                progressed = True
            else:
                deferred.append((fanins, target, rows, number))
        if not progressed:
            missing = sorted(
                {
                    fi
                    for fanins, _, _, _ in deferred
                    for fi in fanins
                    if not net.has_signal(fi)
                }
            )
            first_line = min(number for _, _, _, number in deferred)
            raise BlifError(
                f"undefined signals in BLIF: {missing}", first_line
            )
        pending = deferred

    for out in outputs:
        if not net.has_signal(out):
            raise BlifError(
                f"output {out!r} has no driver", outputs_line
            )
        net.add_output(out)
    return net


def _cover_to_table(
    fanins: List[str], rows: List[Tuple[str, str, int]]
) -> TruthTable:
    n = len(fanins)
    if n == 0:
        value = any(out == "1" for _, out, _ in rows)
        return TruthTable.constant(0, 1 if value else 0)
    on = 0
    polarity = rows[0][1] if rows else "1"
    for cube, out, number in rows:
        if out != polarity:
            raise BlifError("mixed output polarity in one cover", number)
        if len(cube) != n:
            raise BlifError(
                f"cube {cube!r} arity mismatch (expect {n})", number
            )
        # Expand the cube over don't-care positions.
        free = [j for j, ch in enumerate(cube) if ch == "-"]
        base = 0
        for j, ch in enumerate(cube):
            if ch == "1":
                base |= 1 << j
            elif ch not in "0-":
                raise BlifError(f"invalid cube character {ch!r}", number)
        for k in range(1 << len(free)):
            m = base
            for b, j in enumerate(free):
                if (k >> b) & 1:
                    m |= 1 << j
            on |= 1 << m
    table = TruthTable(n, on)
    if polarity == "0":
        table = ~table
    return table


def read_blif(path: str) -> Network:
    """Parse a BLIF file from disk."""
    with open(path) as handle:
        return parse_blif(handle.read())


def to_blif(net: Network) -> str:
    """Serialise a network to BLIF text (on-set cover per node)."""
    lines = [f".model {net.name}"]
    lines.append(".inputs " + " ".join(net.inputs))
    lines.append(".outputs " + " ".join(net.output_names))
    # Outputs that alias PIs or share drivers need buffer nodes in BLIF.
    emitted_buffer = set()
    for out, driver in net.outputs:
        if out != driver and out not in emitted_buffer:
            lines.append(f".names {driver} {out}")
            lines.append("1 1")
            emitted_buffer.add(out)
    for node in net.nodes():
        lines.append(".names " + " ".join(node.fanins + [node.name]))
        if node.table.num_inputs == 0:
            if node.table.mask:
                lines.append("1")
            continue
        for minterm in node.table.on_set():
            cube = "".join(
                "1" if (minterm >> j) & 1 else "0"
                for j in range(node.table.num_inputs)
            )
            lines.append(f"{cube} 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_blif(net: Network, path: str) -> None:
    """Write a network to a BLIF file (atomically: never a torn file)."""
    with atomic_write(path) as handle:
        handle.write(to_blif(net))
