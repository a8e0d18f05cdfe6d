"""Plain-text input: the one reader of config and tableau files, and tableaus.

Both file kinds share one grammar: one `target = value` line per target, split
at the first '='; '#' starts a comment and blank lines are skipped. Errors name
`file:line[:column]` (a whole-file check names the file alone).
A tableau file:

    name = my-method            # optional label
    c = 0,0.5,1                 # nodes in [0, 1], the first 0; the stage count
    a[2][1] = scale:0.5 phi:1 w:0.5
    a[3][2] = scale:0.5 phi:2 w:2 + scale:1 phi:2 w:2
    b[1] = scale:1 phi:1 w:1 + scale:1 phi:2 w:-3 + scale:1 phi:3 w:4

Every phi term is a (scale, phi order, weight) triple; terms are joined
with '+'. Stages missing a b entry default to zero.
"""

from __future__ import annotations

import re

from .errors import ContractError, ParameterError
from .tableaus import PhiCombo, PhiTerm, Tableau


class LocatedError(ParameterError):
    """A bad input line: source:line_no:column, each part only when known."""

    def __init__(self, source, line_no, column, message):
        self.line_no = line_no
        self.column = column
        where = ":".join(str(part) for part in (source, line_no, column) if part is not None)
        super().__init__(f"{where}: {message}")


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; ParameterError naming `what` file if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file {path}: {exc}") from exc


def assignments(text: str, source):
    """(line_no, value column counted from 1, target, value) of each assignment line;
    LocatedError at a target an earlier line set, leading zeros dropped (a[2][01] is a[2][1])."""
    first = {}  # target without its numbers' leading zeros: the line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LocatedError(source, line_no, None,
                               f"expected '<target> = <value>', got {line!r}")
        lhs, rhs = (part.strip() for part in line.split("=", 1))
        at = first.setdefault(re.sub(r"(?<![0-9])0+(?=[0-9])", "", lhs), line_no)
        if at != line_no:
            raise LocatedError(source, line_no, None, f"{lhs!r} repeats the target of line {at}")
        after = raw[raw.index("=") + 1:]
        yield line_no, len(raw) - len(after.lstrip()) + 1, lhs, rhs


_TERM_RE = re.compile(r"^scale:(?P<scale>\S+)\s+phi:(?P<phi>\S+)\s+w:(?P<w>\S+)$")
_A_RE = re.compile(r"^a\[([0-9]+)\]\[([0-9]+)\]$")
_B_RE = re.compile(r"^b\[([0-9]+)\]$")


def _parse_combo(rhs: str, source, line_no: int, column: int) -> PhiCombo:
    """The combo of value rhs, which starts at the line's column; errors name a term's."""
    terms = []
    for chunk in rhs.split("+"):
        text = chunk.strip()
        at = column + chunk.index(text[0]) if text else column
        m = _TERM_RE.match(text)
        if not m:
            raise LocatedError(source, line_no, at,
                               f"expected 'scale:<c> phi:<k> w:<weight>', got {text!r}")
        try:
            scale = float(m.group("scale"))
            order = int(m.group("phi"))
            weight = float(m.group("w"))
        except ValueError as exc:
            raise LocatedError(source, line_no, at, str(exc)) from exc
        terms.append(PhiTerm(scale=scale, order=order, weight=weight))
        column += len(chunk) + 1
    return PhiCombo(terms=tuple(terms))


def parse_tableau(text: str, source="<tableau>") -> Tableau:
    name = "custom"
    c = None
    a = {}
    b = {}
    for line_no, rhs_col, lhs, rhs in assignments(text, source):
        if lhs == "name":
            name = rhs
        elif lhs == "c":
            try:
                c = tuple(float(v) for v in rhs.split(","))
            except ValueError as exc:
                raise LocatedError(source, line_no, rhs_col, f"bad node list: {exc}") from exc
        elif m := _A_RE.match(lhs):
            a[int(m[1]), int(m[2])] = _parse_combo(rhs, source, line_no, rhs_col)
        elif m := _B_RE.match(lhs):
            b[int(m[1])] = _parse_combo(rhs, source, line_no, rhs_col)
        else:
            raise LocatedError(source, line_no, None, f"unknown target {lhs!r}")
    if c is None:
        raise LocatedError(source, None, None, "missing node line 'c = ...'")
    s = len(c)
    for i in b:
        if not 1 <= i <= s:
            raise LocatedError(source, None, None, f"b[{i}] outside stage range 1..{s}")
    empty = PhiCombo(terms=())
    try:
        return Tableau(
            name=name, c=c, a=a,
            b=tuple(b.get(i, empty) for i in range(1, s + 1)),
        )
    except ContractError as exc:  # a node, a[i][j], a scale or a phi order out of range
        raise LocatedError(source, None, None, str(exc)) from exc


def load_tableau(path) -> Tableau:
    return parse_tableau(read_text(path, "tableau"), path)
