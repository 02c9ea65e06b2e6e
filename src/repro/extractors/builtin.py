"""Built-in extractors (regex formulas) for realistic example queries.

Conventions shared by the extractors:

* every extractor returns a *functional* :class:`RegexFormula`;
* variable names are parameters, so one extractor can be instantiated
  several times in a query without variable clashes;
* token boundaries are modelled with explicit context alternations
  ``(ε | .* <delimiter>)`` on the left and ``(<delimiter> .* | ε)`` on
  the right — spanners have no implicit anchoring, so boundary logic
  must live in the formula itself.

The synthetic corpora of :mod:`repro.text.generators` are built to
match these shapes (single-space separation, ``.!?`` sentence enders,
lowercase emails), mirroring how the paper's intro examples pair
``alpha_sen``, ``alpha_adr``, ``alpha_blg``, ``alpha_plc``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..regex.ast import RegexFormula
from ..regex.parser import parse
from ..runtime.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.compiled import CompiledSpanner

__all__ = [
    "sentence_spanner",
    "token_spanner",
    "dictionary_spanner",
    "subspan_spanner",
    "email_spanner",
    "paper_email_spanner",
    "address_spanner",
    "number_spanner",
    "capitalized_spanner",
    "word_spanner",
    "compile_extractor",
]

#: Characters ending a sentence.
_ENDERS = ".!?"


def sentence_spanner(variable: str = "x") -> RegexFormula:
    """``alpha_sen[x]``: spans of sentences.

    A sentence is a maximal run of non-ender characters followed by one
    ender; sentences are separated by a single space (the convention of
    :func:`repro.text.generators.sentences`).
    """
    return parse(
        f"(ε|.*[{_ENDERS}] ){variable}{{[^{_ENDERS}]+[{_ENDERS}]}}( .*|ε)"
    )


def token_spanner(word: str, variable: str = "x") -> RegexFormula:
    """``alpha_tok``: occurrences of ``word`` as a whole token.

    Tokens are delimited by non-alphanumeric characters or the string
    boundary.  ``word`` must be alphanumeric.
    """
    if not word.isalnum():
        raise ValueError(f"token must be alphanumeric, got {word!r}")
    return parse(
        f"(ε|.*[^a-zA-Z0-9]){variable}{{{word}}}([^a-zA-Z0-9].*|ε)"
    )


def dictionary_spanner(words: Sequence[str], variable: str = "x") -> RegexFormula:
    """Dictionary lookup: spans matching any of ``words`` as a token."""
    if not words:
        raise ValueError("dictionary must not be empty")
    for word in words:
        if not word.isalnum():
            raise ValueError(f"dictionary entries must be alphanumeric: {word!r}")
    alternation = "|".join(words)
    return parse(
        f"(ε|.*[^a-zA-Z0-9]){variable}{{{alternation}}}([^a-zA-Z0-9].*|ε)"
    )


def subspan_spanner(inner: str = "y", outer: str = "x") -> RegexFormula:
    """``alpha_sub[y, x]``: all pairs with ``y`` a subspan of ``x``.

    Exactly the paper's ``Σ* x{Σ* y{Σ*} Σ*} Σ*``.
    """
    return parse(f".*{outer}{{.*{inner}{{.*}}.*}}.*")


def paper_email_spanner(
    mail: str = "xmail", user: str = "xuser", domain: str = "xdomain"
) -> RegexFormula:
    """The Example 2.5 email formula, verbatim.

    ``Σ* ␣ xmail{xuser{γ}@xdomain{γ.γ}} ␣ Σ*`` with ``γ = (a|...|z)*``.
    Note it requires a space on both sides, as in the paper.
    """
    gamma = "[a-z]*"
    return parse(
        f".* {mail}{{{user}{{{gamma}}}@{domain}{{{gamma}\\.{gamma}}}}} .*"
    )


def email_spanner(
    mail: str = "mail", user: str = "user", domain: str = "domain"
) -> RegexFormula:
    """A boundary-tolerant variant of Example 2.5.

    Accepts emails at the string boundaries and insists on non-empty
    user/domain parts.
    """
    name = "[a-z0-9]+"
    return parse(
        f"(ε|.* ){mail}{{{user}{{{name}}}@{domain}{{{name}\\.{name}}}}}( .*|ε)"
    )


def address_spanner(address: str = "y", country: str = "z") -> RegexFormula:
    """``alpha_adr[y, z]``: toy postal addresses with a country part.

    Matches the synthetic shape ``Street Name 12, 1000 City, Country``
    (see :func:`repro.text.generators.sentences` planting) where ``y``
    spans the whole address and ``z`` the country token.
    """
    word = "[A-Z][a-z]+"
    return parse(
        f".*{address}{{{word}( {word})* [0-9]+, [0-9]+ {word}, "
        f"{country}{{{word}}}}}.*"
    )


def number_spanner(variable: str = "x") -> RegexFormula:
    """Maximal digit runs."""
    return parse(f"(ε|.*[^0-9]){variable}{{[0-9]+}}([^0-9].*|ε)")


def capitalized_spanner(variable: str = "x") -> RegexFormula:
    """Capitalized words (token-delimited)."""
    return parse(
        f"(ε|.*[^a-zA-Z]){variable}{{[A-Z][a-z]*}}([^a-zA-Z].*|ε)"
    )


def word_spanner(variable: str = "x") -> RegexFormula:
    """Maximal lowercase words (token-delimited)."""
    return parse(f"(ε|.*[^a-z]){variable}{{[a-z]+}}([^a-z].*|ε)")


#: Compiled-spanner cache, keyed structurally by formula AST (the ASTs
#: are frozen dataclasses, so two instantiations of the same extractor
#: with the same variables share one compiled runtime).  Bounded: when
#: full, the least-recently-used entry is evicted, so data-derived
#: formulas (e.g. per-document dictionaries) cannot pin compilations
#: for the process lifetime.
_COMPILED = LRUCache(64, name="extractors")


def compile_extractor(formula: RegexFormula | str) -> "CompiledSpanner":
    """Compile an extractor once for evaluate-many workloads.

    Built-in extractors are exactly the "fixed query workload over many
    documents" the runtime targets: the returned
    :class:`~repro.runtime.CompiledSpanner` carries all
    string-independent preprocessing, and repeated calls with a
    structurally equal formula return the same instance (while it stays
    in the bounded cache).
    """
    from ..runtime.compiled import CompiledSpanner

    if isinstance(formula, str):
        formula = parse(formula)
    return _COMPILED.get_or_create(formula, lambda: CompiledSpanner(formula))
