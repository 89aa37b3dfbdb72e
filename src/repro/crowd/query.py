"""Query construction: meta descriptions and SQL-like strings (system S9).

Two front-ends produce the same Mongo-style filter documents consumed by
:class:`repro.crowd.database.DocumentStore`:

* :func:`build_filter` — translates the paper's meta-description blocks
  (``problem_space`` ranges, ``configuration_space`` machine/software/
  user restrictions) into one filter document, e.g. the paper's example
  — Cori Haswell, 1 node, gcc between 8.0.0 and 9.0.0, specific users —
  becomes range conditions over the record's nested configuration
  blocks.  Version ranges compare ``version_split`` lists
  lexicographically, which is exactly semantic-version ordering.

* :class:`SqlQuery` — the "programmable interface that enables users to
  write an SQL-like query" (Sec. II-B): a tokenizer + recursive-descent
  parser for ``SELECT * WHERE <boolean expr> [ORDER BY f [DESC]]
  [LIMIT n]``, with ``AND``/``OR``/``NOT``, comparisons, ``IN`` lists
  and dotted field paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any

__all__ = ["build_filter", "SqlQuery", "SqlSyntaxError"]


# ---------------------------------------------------------------------------
# meta-description -> filter
# ---------------------------------------------------------------------------

def build_filter(
    problem_name: str | None = None,
    problem_space: Mapping[str, Any] | None = None,
    configuration_space: Mapping[str, Any] | None = None,
    *,
    task_parameters: Mapping[str, Any] | None = None,
    require_success: bool = True,
) -> dict[str, Any]:
    """Build the store filter for a crowd query.

    Parameters mirror the meta description (paper Sec. IV-A).  When a
    block is absent, "a query will download all data available to the
    user" — i.e. no condition is emitted for it.  ``task_parameters``
    pins every named task parameter to an exact value (the sharded
    router's single-shard read path).  A block, or an entry of one, that
    is not a mapping raises ``TypeError``.
    """
    clauses: list[dict[str, Any]] = []
    if problem_name:
        clauses.append({"problem_name": problem_name})
    if require_success:
        clauses.append({"output": {"$ne": None}})
    for name, value in (task_parameters or {}).items():
        clauses.append({f"task_parameters.{name}": value})

    space = _mapping(problem_space or {}, "problem_space")
    for block_key, doc_prefix in (
        ("input_space", "task_parameters"),
        ("parameter_space", "tuning_parameters"),
    ):
        for entry in space.get(block_key, []):
            clauses.extend(_space_entry_clauses(_mapping(entry, block_key), doc_prefix))

    config = _mapping(configuration_space or {}, "configuration_space")
    machines = config.get("machine_configurations", [])
    if machines:
        clauses.append(
            {"$or": [_machine_clause(_mapping(m, "machine_configurations"))
                     for m in machines]}
        )
    for sw in config.get("software_configurations", []):
        clauses.extend(_software_clauses(_mapping(sw, "software_configurations")))
    users = config.get("user_configurations", [])
    if users:
        clauses.append({"owner": {"$in": list(users)}})

    if not clauses:
        return {}
    # fold single-key clauses with distinct paths into one flat document
    # (one mask per path, no nested compile)
    merged: dict[str, Any] = {}
    rest: list[dict[str, Any]] = []
    for clause in clauses:
        if len(clause) == 1:
            ((key, value),) = clause.items()
            if not key.startswith("$") and key not in merged:
                merged[key] = value
                continue
        rest.append(clause)
    if not rest:
        return merged
    if merged:
        rest.append(merged)
    if len(rest) == 1:
        return rest[0]
    return {"$and": rest}


def _mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise TypeError(f"{what}: expected an object, got {value!r}")
    return value


def _space_entry_clauses(entry: Mapping[str, Any], prefix: str) -> list[dict]:
    name = entry.get("name")
    if not name:
        raise ValueError(f"space entry missing 'name': {entry!r}")
    path = f"{prefix}.{name}"
    out: list[dict] = []
    cond: dict[str, Any] = {}
    if "lower_bound" in entry:
        cond["$gte"] = entry["lower_bound"]
    if "upper_bound" in entry:
        cond["$lt"] = entry["upper_bound"]
    if cond:
        out.append({path: cond})
    if "categories" in entry:
        out.append({path: {"$in": list(entry["categories"])}})
    return out


def _machine_clause(machine: Mapping[str, Any]) -> dict[str, Any]:
    """One machine_configurations entry, e.g.
    ``{"Cori": {"haswell": {"nodes": 1, "cores": 32}}}``.

    An entry naming several partitions (or several machines) means "any
    of these", so each (machine, partition) pair becomes its own clause
    and the result is their ``$or`` — a single flat dict would silently
    keep only the last partition's keys.
    """
    subclauses: list[dict[str, Any]] = []
    for machine_name, partitions in machine.items():
        base = {"machine_configuration.machine_name": machine_name}
        if isinstance(partitions, Mapping) and partitions:
            for partition, details in partitions.items():
                clause = dict(base)
                clause["machine_configuration.partition"] = partition
                if isinstance(details, Mapping):
                    for key, value in details.items():
                        clause[f"machine_configuration.{key}"] = value
                subclauses.append(clause)
        else:
            subclauses.append(base)
    if not subclauses:
        return {}
    if len(subclauses) == 1:
        return subclauses[0]
    return {"$or": subclauses}


def _software_clauses(sw: Mapping[str, Any]) -> list[dict]:
    """One software_configurations entry, e.g.
    ``{"gcc": {"version_from": [8,0,0], "version_to": [9,0,0]}}``."""
    out: list[dict] = []
    for package, constraint in sw.items():
        path = f"software_configuration.{package}.version_split"
        cond: dict[str, Any] = {}
        if isinstance(constraint, Mapping):
            if "version_from" in constraint:
                cond["$gte"] = list(constraint["version_from"])
            if "version_to" in constraint:
                cond["$lt"] = list(constraint["version_to"])
        if cond:
            out.append({path: cond})
        else:  # presence-only constraint
            out.append({f"software_configuration.{package}": {"$exists": True}})
    return out


# ---------------------------------------------------------------------------
# SQL-like query strings
# ---------------------------------------------------------------------------

class SqlSyntaxError(ValueError):
    """Raised for malformed SQL-like query strings."""


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>'(?:[^'\\]|\\.)*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),*])
      | (?P<word>[A-Za-z_][\w.]*)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"select", "where", "and", "or", "not", "in", "order", "by", "limit",
             "asc", "desc", "true", "false", "null"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: Any


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise SqlSyntaxError(f"cannot tokenize at ...{text[pos:pos+20]!r}")
        pos = m.end()
        if m.group("string") is not None:
            raw = m.group("string")[1:-1]
            tokens.append(_Token("value", raw.replace("\\'", "'")))
        elif m.group("number") is not None:
            num = m.group("number")
            tokens.append(_Token("value", float(num) if "." in num else int(num)))
        elif m.group("op") is not None:
            tokens.append(_Token("op", m.group("op")))
        elif m.group("punct") is not None:
            tokens.append(_Token("punct", m.group("punct")))
        else:
            word = m.group("word")
            if word.lower() in _KEYWORDS:
                tokens.append(_Token("kw", word.lower()))
            else:
                tokens.append(_Token("ident", word))
    return tokens


@dataclass
class SqlQuery:
    """A parsed SQL-like query: filter + optional sort/limit."""

    filter: dict[str, Any]
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None

    @staticmethod
    def parse(text: str) -> "SqlQuery":
        return _Parser(_tokenize(text)).parse()


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- stream helpers ------------------------------------------------------
    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of query")
        self.pos += 1
        return tok

    def _expect_kw(self, word: str) -> None:
        tok = self._next()
        if tok.kind != "kw" or tok.value != word:
            raise SqlSyntaxError(f"expected {word.upper()}, got {tok.value!r}")

    def _accept_kw(self, word: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.kind == "kw" and tok.value == word:
            self.pos += 1
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        tok = self._next()
        if tok.kind != "punct" or tok.value != ch:
            raise SqlSyntaxError(f"expected {ch!r}, got {tok.value!r}")

    # -- grammar ------------------------------------------------------------
    def parse(self) -> SqlQuery:
        self._expect_kw("select")
        self._expect_punct("*")
        flt: dict[str, Any] = {}
        if self._accept_kw("where"):
            flt = self._expr()
        order_by, descending, limit = None, False, None
        if self._accept_kw("order"):
            self._expect_kw("by")
            tok = self._next()
            if tok.kind != "ident":
                raise SqlSyntaxError(f"ORDER BY needs a field, got {tok.value!r}")
            order_by = tok.value
            if self._accept_kw("desc"):
                descending = True
            else:
                self._accept_kw("asc")
        if self._accept_kw("limit"):
            tok = self._next()
            if tok.kind != "value" or not isinstance(tok.value, int):
                raise SqlSyntaxError(f"LIMIT needs an integer, got {tok.value!r}")
            limit = tok.value
        if self._peek() is not None:
            raise SqlSyntaxError(f"trailing tokens starting at {self._peek().value!r}")
        return SqlQuery(filter=flt, order_by=order_by, descending=descending, limit=limit)

    def _expr(self) -> dict[str, Any]:
        terms = [self._term()]
        while self._accept_kw("or"):
            terms.append(self._term())
        return terms[0] if len(terms) == 1 else {"$or": terms}

    def _term(self) -> dict[str, Any]:
        factors = [self._factor()]
        while self._accept_kw("and"):
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else {"$and": factors}

    def _factor(self) -> dict[str, Any]:
        if self._accept_kw("not"):
            return {"$not": self._factor()}
        tok = self._peek()
        if tok is not None and tok.kind == "punct" and tok.value == "(":
            self._next()
            inner = self._expr()
            self._expect_punct(")")
            return inner
        return self._comparison()

    def _comparison(self) -> dict[str, Any]:
        tok = self._next()
        if tok.kind != "ident":
            raise SqlSyntaxError(f"expected a field name, got {tok.value!r}")
        field = tok.value
        if self._accept_kw("in"):
            self._expect_punct("(")
            values = [self._value()]
            while True:
                nxt = self._peek()
                if nxt is not None and nxt.kind == "punct" and nxt.value == ",":
                    self._next()
                    values.append(self._value())
                else:
                    break
            self._expect_punct(")")
            return {field: {"$in": values}}
        op_tok = self._next()
        if op_tok.kind != "op":
            raise SqlSyntaxError(f"expected an operator after {field!r}")
        value = self._value()
        op_map = {"=": "$eq", "!=": "$ne", "<>": "$ne",
                  "<": "$lt", "<=": "$lte", ">": "$gt", ">=": "$gte"}
        return {field: {op_map[op_tok.value]: value}}

    def _value(self) -> Any:
        tok = self._next()
        if tok.kind == "value":
            return tok.value
        if tok.kind == "kw" and tok.value in ("true", "false", "null"):
            return {"true": True, "false": False, "null": None}[tok.value]
        raise SqlSyntaxError(f"expected a literal value, got {tok.value!r}")
