"""The reader of the table file: the layout ``SchurTable.canonical_json``
writes, and no other text.

A table file is ``json.dumps(payload, indent=1)`` plus a newline, triples
and exponents sorted and every coefficient a quoted ``"p"`` or ``"p/q"``.
``load_table`` reads the file in chunks of ``CHUNK`` bytes, feeds each chunk
to one SHA-256 and decodes it; the text is parsed up to the last entry end
seen so far, and only the part after it is carried to the next chunk, so
the whole text is never held.  Each entry is checked against that layout
with regular expressions and its terms are read from the coefficient texts;
triples must strictly increase and, within an entry, exponents too.  A text
it accepts is therefore byte for byte what ``canonical_json`` writes for the
table it returns.  A text that departs from the layout is rejected with the
number of its first departing line, found by a line-by-line walk of the file
(``_LINES``) that runs only then.

Every entry of a table is invariant under each x -> 1/x, and the table
holds only its orthant, the terms with every exponent >= 0
(``table.SchurTable``).  As each entry is parsed, every term's coefficient
text is compared with that of its orthant mirror and every mirror term of
an orthant term must be present; the coefficient texts are canonical, so
equal texts are equal rationals.  An entry that fails is a ``TableError``
naming the entry and both exponents.  Only the orthant terms are kept.

The patterns are written independently of the writer's templates, so that
``roundtrip`` (render a loaded table and compare its SHA-256 with the
file's) checks one against the other.  ``SchurTable.load`` imports this module on its first call, so the
commands that read no table do not compile it.
"""

from __future__ import annotations

import codecs
import re
from functools import cache
from itertools import compress
from math import gcd, lcm
from operator import lt

from .table import (FORMAT_VERSION, SchurTable, TableError, is_admissible,
                    unfold, whole_table_failure)

#: bytes read from the file at a time
CHUNK = 1 << 16

#: an integer as ``%d`` writes it
_INT = r"(?:0|-?[1-9][0-9]*)"
#: a coefficient: any text without a quote, backslash or newline; whether it
#: is the canonical text of a rational is ``_parse_coeff``'s to say
_COEFF = r'[^"\\\n]*'
_EXP = rf"{_INT},\n      {_INT},\n      {_INT}"
_ANY_TERM = (f'    \\{{\n     "exp": \\[\n      {_EXP}\n     \\],\n'
             f'     "coeff": "{_COEFF}"\n    \\}}')

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
#: the end of an entry that another entry follows: text is parsed up to the
#: last one read
_SEPARATOR = "\n  },\n"


def load_table(path) -> SchurTable:
    """The table of the table file at ``path``, with its ``file_checksum``;
    see ``SchurTable.load`` for what is checked.  Raises ``TableError``."""
    import hashlib  # see SchurTable.checksum
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            table = _parse(_blocks(fh, digest.update))
    except (OSError, UnicodeDecodeError) as exc:
        raise TableError(f"unreadable table file: {exc}") from exc
    except ValueError as exc:  # an integer text beyond int()'s digit limit
        raise TableError(f"unreadable table file: {exc}") from None
    except _Departs:
        raise _layout_error(path) from None
    table.file_checksum = digest.hexdigest()
    return table


class _Departs(Exception):
    """The text departs from the layout; ``_layout_error`` names the line."""


def _blocks(fh, update):
    """The file's text as ``(text, end)`` pairs: ``text[:end]`` ends just after
    an entry separator, or is all that is left at the end of the file, and
    ``text[end:]`` starts the next pair's text.  Each chunk read goes to
    ``update`` first.  An entry longer than a chunk is joined from its
    chunks once its end is read."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    parts: list[str] = []
    while True:
        data = fh.read(CHUNK)
        update(data)
        final = not data
        piece = decode(data, final)
        del data
        parts.append(piece)
        if final:
            text = "".join(parts)
            del parts, piece
            yield text, len(text)
            return
        cut = piece.rfind(_SEPARATOR)
        if cut >= 0:
            cut += len(_SEPARATOR) - len(piece)  # from the end of the text
            del piece
            text = "".join(parts)
            parts.clear()
            yield text, len(text) + cut
            parts.append(text[len(text) + cut:])
            del text


def _parse(blocks) -> SchurTable:
    """The table of the text that ``blocks`` (see ``_blocks``) yields."""
    text, end = next(blocks)
    m = _HEAD.match(text, 0, end)
    if m is None:
        raise _Departs
    version, max_level, entries = m.groups()
    if int(version) != FORMAT_VERSION:
        raise TableError(f"format version mismatch: expected {FORMAT_VERSION}, "
                         f"got {int(version)!r}")
    if max_level is None:
        raise _Departs
    max_level = int(max_level)
    if max_level < 0 or max_level % 2:
        raise TableError(f"invalid max_level: {max_level!r}")
    forms = {}
    # exponent and coefficient texts repeat across entries: each is parsed once
    exp_of = _ExpTexts().__getitem__
    coeff_of = cache(_parse_coeff)
    pos, more = m.end(), entries == "[\n"
    last = None  # the triple of the previous entry
    while more:
        if pos == end:
            text = m = None  # the parsed text is freed before the next is read
            text, end = next(blocks, (None, 0))
            if text is None:  # the file ends after a separator
                raise _Departs
            pos = 0
        m = _ENTRY.match(text, pos, end)
        if m is None:
            raise _Departs
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
        # the block matched the layout, so its quotes delimit its fields: the
        # text between the exponent's and the coefficient's, and the
        # coefficient, six pieces apart
        pieces = text[m.start(4):m.end(4)].split('"')
        exp_texts, coeffs = pieces[2::6], tuple(pieces[5::6])
        es, mirrors, weights = zip(*map(exp_of, exp_texts))
        if not all(map(lt, es, es[1:])):
            i = next(i for i in range(1, len(es)) if es[i] <= es[i - 1])
            raise TableError(f"duplicate exponent {es[i]} in entry {t}"
                             if es[i] == es[i - 1] else
                             f"exponents out of order in entry {t}: "
                             f"{es[i]} after {es[i - 1]}")
        text_at = dict(zip(exp_texts, coeffs))
        if (tuple(map(text_at.get, mirrors)) != coeffs
                or sum(weights) != len(es)):
            raise _asymmetry(t, es, coeffs, coeff_of)
        # every coefficient text is that of an orthant term
        orthant_es, orthant_coeffs = zip(*compress(zip(es, coeffs), weights))
        pqs = list(map(coeff_of, orthant_coeffs))
        if "0" in orthant_coeffs:
            raise TableError(f"stored zero coefficient at {t}, "
                             f"{es[coeffs.index('0')]}")
        den = lcm(*{q for _, q in pqs})
        forms[t] = {e: p * (den // q) for e, (p, q) in zip(orthant_es, pqs)}, den
    if pos != end or next(blocks, None) is not None:
        raise _Departs
    table = SchurTable(max_level, forms)
    failure = whole_table_failure(table)
    if failure:
        raise TableError(failure)
    return table


class _ExpTexts(dict):
    """Exponent texts, the text between the ``"exp"`` and ``"coeff"`` keys
    of a term, parsed once per load: text -> (exponent, the text of its
    orthant mirror (its minus signs dropped), and for an exponent in the
    orthant the number of its mirror exponents (+-e1, +-e2, +-e3), else 0).

    A text is parsed on its first lookup.  The mirror text of a text off the
    orthant is the very string its orthant text is held under, parsed first
    if need be, so the (up to eight) mirror exponents of a term share one
    copy of it.
    """

    def __missing__(self, text: str) -> tuple[tuple[int, int, int], str, int]:
        e = tuple(map(int, text[4:-14].split(",")))  # int() skips the indents
        mirror = text.replace("-", "")
        if mirror == text:
            out = e, text, 1 << sum(map(bool, e))
        else:
            out = e, self[mirror][1], 0
        self[text] = out
        return out


def _asymmetry(t, es, coeffs, coeff_of) -> TableError:
    """The error for entry ``t``, exponents ``es`` and coefficient texts
    ``coeffs``, whose terms are not mirror-symmetric.

    The checks a symmetric entry meets first name their failure first: a
    malformed or zero coefficient text, then a value at ones other than 1,
    as the whole-table checks would.  Otherwise the first term whose orthant
    mirror is missing or has another coefficient text is named with that
    mirror, else the first orthant term with a mirror term missing."""
    pqs = list(map(coeff_of, coeffs))
    if "0" in coeffs:
        return TableError(f"stored zero coefficient at {t}, {es[coeffs.index('0')]}")
    den = lcm(*[q for _, q in pqs])
    if sum([p * (den // q) for p, q in pqs]) != den:
        return TableError(f"entry {t} does not evaluate to 1 at (1,1,1)")
    text_at = dict(zip(es, coeffs))
    for e, c in zip(es, coeffs):
        mirror = tuple(map(abs, e))
        if mirror not in text_at:
            return TableError(f"asymmetric entry {t}: term {e} has no mirror "
                              f"term {mirror}")
        if text_at[mirror] != c:
            return TableError(f"asymmetric entry {t}: coefficient {c!r} at {e}, "
                              f"{text_at[mirror]!r} at its mirror {mirror}")
    for e in es:
        if min(e) >= 0:
            for mirror in unfold({e: 0}):
                if mirror not in text_at:
                    return TableError(f"asymmetric entry {t}: term {e} has no "
                                      f"mirror term {mirror}")
    raise AssertionError(f"the terms of entry {t} are mirror-symmetric")


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


def _layout_error(path) -> TableError:
    """The error naming the first line of the file at ``path`` that departs
    from the layout: a line that no state allowed there matches, else the
    line after the last newline, which is cut short or missing."""
    states = ("open",)
    n, line = 0, ""
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.decode("utf-8", "replace")
            if not line.endswith("\n"):
                break
            line = line[:-1]
            state = next((s for s in states if re.fullmatch(_LINES[s][0], line)),
                         None)
            if state is None:
                break
            states = _LINES[state][1]
        else:
            return TableError(f"unreadable table file: line {n + 1} departs from "
                              "the canonical layout: the text ends before it")
    return TableError(f"unreadable table file: line {n} departs from the "
                      f"canonical layout: {line[:60]!r}")
