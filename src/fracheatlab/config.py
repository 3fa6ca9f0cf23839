"""Plain-text key/value configuration.

Files hold one ``key = value`` assignment per line with ``#`` comments and
dotted keys for grouping (``grid.n = 128``).  A ``#`` inside double quotes
belongs to the value.  Values are parsed as int, float, or string, in that
order; strings that would re-parse as something else, or that contain ``#``,
are serialized with double quotes so a config round-trips losslessly.  The
canonical serialization (sorted keys) feeds a sha256 hash recorded in
experiment metadata.
"""

from __future__ import annotations

import hashlib


class ConfigError(ValueError):
    """Malformed configuration text or override."""


def parse_value(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def format_value(value) -> str:
    if isinstance(value, bool):
        raise ConfigError(f"bool value {value!r} cannot be serialized")
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if "\n" in text or '"' in text:
        raise ConfigError(f"string value {text!r} cannot be serialized")
    # quote anything that would re-parse as something else (a number, stripped
    # text) or be cut at a comment
    if parse_value(text) != text or text == "" or "#" in text:
        return f'"{text}"'
    return text


def _strip_comment(line: str) -> str:
    """Cut the line at its first ``#`` outside double quotes."""
    quoted = False
    for i, ch in enumerate(line):
        quoted ^= ch == '"'
        if ch == "#" and not quoted:
            return line[:i]
    return line


def parse_config_text(text: str) -> dict:
    cfg = {}
    # only "\n" ends a line (strip() drops a trailing "\r"); splitlines()
    # would also break inside values at "\x1e", "\u2028" and the like
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = parse_value(value)
    return cfg


def load_config(path) -> dict:
    try:
        # newline="" keeps a "\r" inside a value; universal newlines would
        # end the line there
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply 'key=value' strings on top of cfg; returns a new dict."""
    out = dict(cfg)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r} has an empty key")
        out[key] = parse_value(value)
    return out


def canonical_text(cfg: dict) -> str:
    lines = [f"{key} = {format_value(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + ("\n" if lines else "")


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
