"""Seeded inputs for the benchmark workloads, and independent oracles.

Everything here is standard-library Python: the inputs are generated from
the ``--seed`` argument alone (the system under test only ever sees the
generated strings), and the oracles recompute each workload's answers
without calling the system, so an engine bug cannot hide in its own
reference.
"""

from __future__ import annotations

import random

#: The E13 dictionary extractor's vocabulary: log keywords plus a
#: service-name list, most of it absent from any one line.
DICTIONARY = [
    "disk", "net", "auth", "db", "cache", "ERROR", "INFO", "timeout",
    "retry", "request", "connection", "checksum", "scheduled",
    "completed", "reset", "exceeded", "mismatch", "code",
] + [f"svc{i}" for i in range(16)]

_COMPONENTS = ("disk", "net", "auth", "db", "cache")
_MESSAGES = (
    "request completed",
    "connection reset",
    "retry scheduled",
    "timeout exceeded",
    "checksum mismatch",
)

#: serve-logs: lines per request batch, and distinct batches per client
#: (clients cycle through their pool, so references are computed once).
BATCH_LINES = 48
BATCHES_PER_CLIENT = 24

#: dense-logs: log lines per document (~0.9 KiB).  Every line holds the
#: same digit runs (HH, MM, SS and a 3-digit code: 15 spans), so every
#: document has exactly 300 tuples, and the latency percentiles and the
#: rates of a window do not depend on which documents fell into it.
DENSE_LINES = 20

#: equality-cq: document length and alphabet (the E10 dedup shape).
EQ_LENGTH = 32
EQ_ALPHABET = "abcdefgh"
EQ_PLANT = "abc"


def log_line(rng: random.Random) -> str:
    """One ~44-char machine-log line: ``HH:MM:SS LEVEL comp msg code=NNN``."""
    level = "ERROR" if rng.random() < 0.2 else "INFO"
    return (
        f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:"
        f"{rng.randrange(60):02d} {level} {rng.choice(_COMPONENTS)} "
        f"{rng.choice(_MESSAGES)} code={rng.randrange(100, 1000)}"
    )


def serve_batches(seed: int, client: int) -> list[list[str]]:
    """The request batches one serve-logs client cycles through."""
    rng = random.Random(f"serve-logs/{seed}/{client}")
    return [
        [log_line(rng) for _ in range(BATCH_LINES)]
        for _ in range(BATCHES_PER_CLIENT)
    ]


def dense_docs(seed: int, n_docs: int) -> list[str]:
    """``n_docs`` tuple-dense documents of :data:`DENSE_LINES` lines."""
    rng = random.Random(f"dense-logs/{seed}")
    return [
        "\n".join(log_line(rng) for _ in range(DENSE_LINES))
        for _ in range(n_docs)
    ]


def equality_docs(seed: int, n_docs: int) -> list[str]:
    """``n_docs`` random strings over a-h, each with a planted repeat."""
    rng = random.Random(f"equality-cq/{seed}")
    docs = []
    for _ in range(n_docs):
        chars = [rng.choice(EQ_ALPHABET) for _ in range(EQ_LENGTH)]
        half = EQ_LENGTH // 2
        first = rng.randrange(0, half - len(EQ_PLANT) + 1)
        second = rng.randrange(half, EQ_LENGTH - len(EQ_PLANT) + 1)
        chars[first : first + len(EQ_PLANT)] = EQ_PLANT
        chars[second : second + len(EQ_PLANT)] = EQ_PLANT
        docs.append("".join(chars))
    return docs


# -- Oracles: answers as sets of ((var, start, end), ...) ------------------
# Spans are 1-based and end-exclusive, as in the paper's ``[i, j>``.


def digit_spans(s: str) -> set[tuple]:
    """``.*x{[0-9]+}.*``: every nonempty all-digit substring."""
    out = set()
    n = len(s)
    i = 0
    while i < n:
        if not s[i].isdigit():
            i += 1
            continue
        j = i
        while j < n and s[j].isdigit():
            j += 1
        for a in range(i, j):
            for b in range(a + 1, j + 1):
                out.add((("x", a + 1, b + 1),))
        i = j
    return out


def equal_pairs(s: str) -> set[tuple]:
    """``x{[a-h]+}, y{[a-h]+}, x = y``: span pairs with equal content."""
    by_value: dict[str, list[tuple[int, int]]] = {}
    n = len(s)
    for a in range(n):
        for b in range(a + 1, n + 1):
            if all(c in EQ_ALPHABET for c in s[a:b]):
                by_value.setdefault(s[a:b], []).append((a + 1, b + 1))
    return {
        (("x", xa, xb), ("y", ya, yb))
        for spans in by_value.values()
        for xa, xb in spans
        for ya, yb in spans
    }


def dictionary_spans(s: str) -> set[tuple]:
    """The dictionary extractor: whole-token occurrences of any word."""
    out = set()
    for word in DICTIONARY:
        start = s.find(word)
        while start >= 0:
            end = start + len(word)
            if (start == 0 or not s[start - 1].isalnum()) and (
                end == len(s) or not s[end].isalnum()
            ):
                out.add((("x", start + 1, end + 1),))
            start = s.find(word, start + 1)
    return out


def capitalized_spans(s: str) -> set[tuple]:
    """``capitalized_spanner()``: letter-delimited ``[A-Z][a-z]*`` tokens."""
    out = set()
    for start, ch in enumerate(s):
        if not ("A" <= ch <= "Z") or (start and s[start - 1].isalpha()):
            continue
        end = start + 1
        while end < len(s) and "a" <= s[end] <= "z":
            end += 1
        if end == len(s) or not s[end].isalpha():
            out.add((("x", start + 1, end + 1),))
    return out


def code_spans(s: str) -> set[tuple]:
    """``.*code=x{[0-9]+}.*``: every nonempty digit run prefix after code=."""
    out = set()
    start = s.find("code=")
    while start >= 0:
        end = start + len("code=")
        while end < len(s) and s[end].isdigit():
            end += 1
            out.add((("x", start + len("code=") + 1, end + 1),))
        start = s.find("code=", start + 1)
    return out


#: Oracles for the serve-logs queries, in registration order.
SERVE_ORACLES = (dictionary_spans, capitalized_spans, code_spans)


def as_set(tuples) -> set[tuple]:
    """Normalize span tuples to the oracle's hashable form."""
    return {
        tuple(sorted((var, span.start, span.end) for var, span in t.items()))
        for t in tuples
    }
