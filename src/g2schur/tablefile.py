"""The reader of the table file: the layout ``SchurTable.canonical_json``
writes, and no other text.

A table file is ``json.dumps(payload, indent=1)`` plus a newline, triples
and exponents sorted and every coefficient a quoted ``"p"`` or ``"p/q"``.
``read_table`` checks a text against that layout with regular expressions,
entry by entry, and reads the integer form of each entry from the
coefficient texts; it also requires strictly increasing triples and, within
an entry, strictly increasing exponents.  A text it accepts is therefore
byte for byte what ``canonical_json`` writes for the table it returns.  A
text that departs from the layout is rejected with the number of its first
departing line, found by a line-by-line walk (``_LINES``) that runs only
then.

The patterns are written independently of the writer's templates, so that
``roundtrip`` (render a loaded table, compare the bytes) checks one against
the other.  ``SchurTable.load`` imports this module on its first call, so the
commands that read no table do not compile it.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd, lcm
from operator import lt

from .table import (FORMAT_VERSION, SchurTable, TableError, is_admissible,
                    whole_table_failure)

#: an integer as ``%d`` writes it
_INT = r"(?:0|-?[1-9][0-9]*)"
#: a coefficient: any text without a quote, backslash or newline; whether it
#: is the canonical text of a rational is ``_parse_coeff``'s to say
_COEFF = r'[^"\\\n]*'
_EXP = rf"{_INT},\n      {_INT},\n      {_INT}"
_TERM = ('    \\{\n     "exp": \\[\n      %s\n     \\],\n'
         '     "coeff": "%s"\n    \\}')
_ANY_TERM = _TERM % (_EXP, _COEFF)

#: the head of the file; it stops after the version line when the rest
#: departs, so that a version mismatch is named as such
_HEAD = re.compile(rf'\{{\n "format_version": ({_INT}),\n'
                   rf'(?: "max_level": ({_INT}),\n "entries": (\[\]\n\}}\n\Z|\[\n))?')
#: one entry and the separator or file end after it; groups: the triple, the
#: term block (None for ``"poly": []``) and the comma and newline before the
#: next entry (None after the last)
_ENTRY = re.compile(
    rf'  \{{\n   "triple": \[\n    ({_INT}),\n    ({_INT}),\n    ({_INT})\n   \],\n'
    rf'   "poly": \[(?:\]|\n((?:{_ANY_TERM},\n)*{_ANY_TERM})\n   \])\n  \}}'
    rf'(?:(,\n)|\n \]\n\}}\n\Z)')
#: one term of a block that ``_ENTRY`` matched; groups: exponents, coefficient
_TERM_FIELDS = re.compile(_TERM % (f"({_EXP})", f"({_COEFF})"))


def read_table(text: str) -> SchurTable:
    """The table of a table file text; see ``SchurTable.load`` for what is
    checked.  Raises ``TableError``, and ``ValueError`` for an integer text
    beyond ``int()``'s digit limit."""
    m = _HEAD.match(text)
    if m is None:
        raise _layout_error(text)
    version, max_level, entries = m.groups()
    if int(version) != FORMAT_VERSION:
        raise TableError(f"format version mismatch: expected {FORMAT_VERSION}, "
                         f"got {int(version)!r}")
    if max_level is None:
        raise _layout_error(text)
    max_level = int(max_level)
    if max_level < 0 or max_level % 2:
        raise TableError(f"invalid max_level: {max_level!r}")
    forms = {}
    # exponent and coefficient texts repeat across entries: each is parsed once
    exp_of = cache(lambda s: tuple(map(int, s.split(","))))
    coeff_of = cache(_parse_coeff)
    pos, more = m.end(), entries == "[\n"
    last = None  # the triple of the previous entry
    while more:
        m = _ENTRY.match(text, pos)
        if m is None:
            raise _layout_error(text)
        pos, more = m.end(), m[5]
        t = int(m[1]), int(m[2]), int(m[3])
        if not is_admissible(*t):
            raise TableError(f"non-admissible triple {t} in table file")
        if sum(t) > max_level:
            raise TableError(f"triple {t} beyond declared max_level {max_level}")
        if last is not None and t <= last:
            raise TableError(f"duplicate triple {t}" if t == last else
                             f"triples out of order: {t} after {last}")
        last = t
        if m[4] is None:  # "poly": []
            forms[t] = {}, 1
            continue
        fields = _TERM_FIELDS.findall(text, m.start(4), m.end(4))
        es = [exp_of(e) for e, _ in fields]
        if not all(map(lt, es, es[1:])):
            i = next(i for i in range(1, len(es)) if es[i] <= es[i - 1])
            raise TableError(f"duplicate exponent {es[i]} in entry {t}"
                             if es[i] == es[i - 1] else
                             f"exponents out of order in entry {t}: "
                             f"{es[i]} after {es[i - 1]}")
        pqs = [coeff_of(c) for _, c in fields]
        den = lcm(*{q for _, q in pqs})
        nums = {e: p * (den // q) for e, (p, q) in zip(es, pqs)}
        if not all(nums.values()):
            e = next(e for e, n in nums.items() if not n)
            raise TableError(f"stored zero coefficient at {t}, {e}")
        forms[t] = nums, den
    table = SchurTable(max_level, forms)
    failure = whole_table_failure(table)
    if failure:
        raise TableError(failure)
    return table


def _parse_coeff(text: str) -> tuple[int, int]:
    """``(p, q)`` of a coefficient text, which must read exactly as
    ``str(Fraction(p, q))``: ``str(p)``, or ``"p/q"`` with q > 1 coprime to p.

    Any other text that ``Fraction`` or ``int`` would accept (``"2/4"``,
    ``"1/1"``, ``"+1/2"``, ``" 1/2"``, ``"1_0/20"``, ``"0.5"``) raises
    ``TableError``.
    """
    try:
        num, slash, den = text.partition("/")
        p = int(num)
        q = int(den) if slash else 1
    except ValueError:
        raise TableError(f"malformed rational {text!r}") from None
    if str(p) != num or slash and (q < 2 or str(q) != den or gcd(p, q) != 1):
        raise TableError(f"malformed rational {text!r}")
    return p, q


#: the layout line by line, to name the line where a text departs from it:
#: state -> (pattern of its line, the states that may follow)
_LINES = {
    "open": (r"\{", ("version",)),
    "version": (rf' "format_version": {_INT},', ("level",)),
    "level": (rf' "max_level": {_INT},', ("no entries", "entries")),
    "no entries": (r' "entries": \[\]', ("close",)),
    "entries": (r' "entries": \[', ("entry",)),
    "entry": (r"  \{", ("triple",)),
    "triple": (r'   "triple": \[', ("j1",)),
    "j1": (rf"    {_INT},", ("j2",)),
    "j2": (rf"    {_INT},", ("j3",)),
    "j3": (rf"    {_INT}", ("triple end",)),
    "triple end": (r"   \],", ("no terms", "poly")),
    "no terms": (r'   "poly": \[\]', ("entry end", "last entry end")),
    "poly": (r'   "poly": \[', ("term",)),
    "term": (r"    \{", ("exp",)),
    "exp": (r'     "exp": \[', ("e1",)),
    "e1": (rf"      {_INT},", ("e2",)),
    "e2": (rf"      {_INT},", ("e3",)),
    "e3": (rf"      {_INT}", ("exp end",)),
    "exp end": (r"     \],", ("coeff",)),
    "coeff": (rf'     "coeff": "{_COEFF}"', ("term end", "last term end")),
    "term end": (r"    \},", ("term",)),
    "last term end": (r"    \}", ("poly end",)),
    "poly end": (r"   \]", ("entry end", "last entry end")),
    "entry end": (r"  \},", ("entry",)),
    "last entry end": (r"  \}", ("entries end",)),
    "entries end": (r" \]", ("close",)),
    "close": (r"\}", ()),
}


def _layout_error(text: str) -> TableError:
    """The error naming the first line of ``text`` that departs from the
    layout: a line that no state allowed there matches, else the line after
    the last newline, which is cut short or missing."""
    *lines, rest = text.split("\n")
    states = ("open",)
    for n, line in enumerate(lines, 1):
        state = next((s for s in states if re.fullmatch(_LINES[s][0], line)), None)
        if state is None:
            break
        states = _LINES[state][1]
    else:
        n, line = len(lines) + 1, rest
        if not rest:
            return TableError(f"unreadable table file: line {n} departs from "
                              "the canonical layout: the text ends before it")
    return TableError(f"unreadable table file: line {n} departs from the "
                      f"canonical layout: {line[:60]!r}")
