"""Structured text configuration for subshift presentations.

The format is flat ``key = value`` lines, ``#`` comments.  Keys:

    variant   = full_shift | sft | substitution
    alphabet  = space-separated symbol names
    rule.SYM  = image word of SYM (substitution variants)
    forbidden = space-separated forbidden words (sft variant)

A key the variant does not read is refused.

Words are space-separated symbol tokens; a single token is split into
characters when every alphabet symbol is one character.
"""

from __future__ import annotations

from .errors import ConfigError
from .words import Alphabet, FullShiftSpec, SFTSpec, SubshiftSpec, SubstitutionSpec


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _word_tokens(value: str, alphabet: Alphabet) -> list[str]:
    tokens = value.split()
    if len(tokens) == 1 and all(len(s) == 1 for s in alphabet.symbols):
        return list(tokens[0])
    return tokens


def spec_from_config(text: str) -> tuple[SubshiftSpec, dict[str, str]]:
    """Build the presented subshift; returns (spec, {}).  A key the
    variant does not read raises ConfigError."""
    table = parse_config_text(text)
    variant = table.pop("variant", None)
    if variant is None:
        raise ConfigError("missing key 'variant'")
    alphabet_value = table.pop("alphabet", None)
    if alphabet_value is None:
        raise ConfigError("missing key 'alphabet'")
    alphabet = Alphabet(tuple(alphabet_value.split()))
    if variant == "full_shift":
        spec: SubshiftSpec = FullShiftSpec(alphabet)
    elif variant == "sft":
        # words separated by commas (or by spaces when symbols are one char)
        forbidden_value = table.pop("forbidden", "")
        if "," in forbidden_value:
            chunks = [c.strip() for c in forbidden_value.split(",") if c.strip()]
        else:
            chunks = forbidden_value.split()
        forbidden = [_word_tokens(chunk, alphabet) for chunk in chunks]
        spec = SFTSpec(alphabet, forbidden)
    elif variant == "substitution":
        rules = {}
        for key in list(table):
            if key.startswith("rule."):
                sym = key[len("rule.") :]
                rules[sym] = _word_tokens(table.pop(key), alphabet)
        if set(rules) != set(alphabet.symbols):
            raise ConfigError(
                f"substitution rules cover {sorted(rules)} but alphabet is "
                f"{list(alphabet.symbols)}"
            )
        spec = SubstitutionSpec(alphabet, rules)
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    if table:
        raise ConfigError(f"unknown key {next(iter(table))!r} for variant {variant!r}")
    return spec, {}
