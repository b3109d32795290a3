"""Experiment config: the one table of fields, its reader and the YAML loader.

``_FIELDS`` holds each field's type, range, ceiling, default and the kinds
that read it; ``_field`` applies a row, and the keys each section and kind
may hold derive from the table.  Rules that join fields (size or indices,
one entry per vertex, noise.low <= noise.high) stay with the code that reads
them, and the design fields' ranges are ``design.DesignSpec``'s.
"""

from __future__ import annotations

import math
from collections import namedtuple

import yaml

from .distributed import DrlsConfig

# the ceiling on compare.random_seeds and algorithm.inner_iters, whose run time grows with each
_LOOP_CEILING = 10_000


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


# a default that is another field's value; a default of ... means the field must be given
_From = namedtuple("_From", "path")
_ALGORITHMS = "lms rls drls"
# A type is count (a size: run time grows with it), int, real, number, string,
# enum, "list of <type>" or "<type> or <type>"; a range an interval ("√2" is
# sqrt(2)), of each entry in a list, or an enum's choices.
_Field = namedtuple("_Field", "path type range ceiling default kinds doc")
_FIELDS = {path: _Field(path, type_, tuple(span.split()) if type_ == "enum" else span,
                        ceiling, default, tuple(kinds.split()), doc)
           for path, type_, span, ceiling, default, kinds, doc in (
    # path, type, range, ceiling, default, kinds that read it, doc
    ("version", "int", None, None, 1, "", "config format; only 1 is read"),
    # numpy splits a seed past 32 bits into two key words, the second read as a tag
    ("seed", "int", "[0, inf)", 2 ** 32 - 1, 0, "", "keys every random stream"),
    ("trials", "count", "[1, inf)", None, 200, "", "Monte Carlo trials"),
    ("horizon", "count", "[1, inf)", None, 1000, "", "instants per trial"),
    ("graph.kind", "enum", "random_geometric edge_list", None, ..., "", "how the graph is made"),
    ("graph.n", "count", "[2, inf)", None, ..., "random_geometric", "vertices"),
    ("graph.radius", "real", "(0, √2]", None, ..., "random_geometric", "redrawn until connected"),
    ("graph.seed", "int", "[0, inf)", None, _From("seed"), "random_geometric", "seeds the draw"),
    ("graph.path", "string", None, None, ..., "edge_list", "edge-list file"),
    ("bandlimit.size", "count", "[1, inf)", None, ..., "", "the lowest Laplacian frequencies"),
    ("bandlimit.indices", "list of int", None, None, None, "", "the frequencies, not with size"),
    ("noise.kind", "enum", "uniform values loguniform", None, "uniform", "", "the noise model"),
    ("noise.sigma_sq", "real", "(0, inf)", None, ..., "uniform", "the variance at every vertex"),
    ("noise.values", "list of number", None, None, ..., "values", "one variance per vertex"),
    ("noise.low", "real", "(0, inf)", None, ..., "loguniform", "least variance"),
    ("noise.high", "real", "(0, inf)", None, ..., "loguniform", "greatest variance"),
    ("signal.scale", "number", None, None, 1.0, "", "scales the frequency coefficients"),
    ("sampling.kind", "enum", "full explicit strategy design", None, ..., "", "how p is obtained"),
    ("sampling.p", "list of number", None, None, ..., "explicit", "one probability per vertex"),
    ("sampling.strategy", "enum", "max_det leverage uniform", None, ..., "strategy", "how to pick"),
    ("sampling.m", "count", "[1, inf)", None, ..., "strategy", "vertices chosen"),
    ("sampling.problem", "string", None, None, ..., "design", "the design problem"),
    ("sampling.p_max", "number or list of number", None, None, None, "design", "cap on p_i"),
    ("sampling.mu", "number", None, None, _From("algorithm.mu"), "design", "LMS step size"),
    ("sampling.beta", "number", None, None, _From("algorithm.beta"), "design", "RLS forgetting"),
    ("sampling.rate_target", "number", None, None, None, "design", "convergence factor"),
    ("sampling.msd_target", "number", None, None, None, "design", "linear MSD target"),
    # 10^(db/10) overflows a float past 3083 dB
    ("sampling.msd_target_db", "number", "(-inf, 3000]", None, None, "design", "MSD target, dB"),
    ("sampling.budget", "number", None, None, None, "design", "cap on sum(p)"),
    ("algorithm.kind", "enum", _ALGORITHMS, None, ..., "", "the estimator"),
    ("algorithm.mu", "real", "(0, inf)", None, ..., _ALGORITHMS, "LMS step size"),
    # beta = 1 forgets nothing, and the RLS closed form holds on (0, 1) only
    ("algorithm.beta", "real", "(0, 1)", None, ..., _ALGORITHMS, "RLS forgetting factor"),
    ("algorithm.delta", "real", "(0, inf)", None, DrlsConfig.delta, "rls drls", "Psi_0 = delta I"),
    ("algorithm.rho", "real", "(0, inf)", None, DrlsConfig.rho, "drls", "consensus penalty"),
    ("algorithm.inner_iters", "count", "[1, inf)", _LOOP_CEILING, DrlsConfig.inner_iters, "drls",
     "consensus rounds per instant"),
    ("algorithm.comm", "string", None, None, "processing", "drls", "communication graph"),
    ("compare.rate_targets", "list of number", "(0, 1)", None, ..., "", "convergence factors"),
    ("compare.mu", "number", None, None, _From("algorithm.mu"), "", "LMS step size"),
    ("compare.msd_target", "number", None, None, None, "", "linear MSD target"),
    ("compare.msd_target_db", "number", "(-inf, 3000]", None, None, "", "MSD target, dB"),
    ("compare.p_max", "number or list of number", None, None, None, "", "cap on p_i"),
    ("compare.random_seeds", "count", "[1, inf)", _LOOP_CEILING, 200, "", "random orderings"),
)}

# every key the top level ("") and each section may hold; any other is rejected
_PARTS = [path.rpartition(".") for path in _FIELDS]
_KEYS = {section: {key for sec, _, key in _PARTS if sec == section} for section, _, _ in _PARTS}
_KEYS[""] |= _KEYS.keys() - {""}
# the keys each kind of a section reads besides "kind"
_KIND_KEYS = {section: {kind: {key for sec, _, key in _PARTS
                               if sec == section and kind in _FIELDS[f"{sec}.{key}"].kinds}
                        for kind in _FIELDS[f"{section}.kind"].range}
              for section in _KEYS if f"{section}.kind" in _FIELDS}
_TYPES = {"count": (int,), "int": (int,), "real": (int, float), "number": (int, float),
          "string": (str,), "enum": (str,), "list": (list,)}


def _name(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _ends(span: str) -> tuple:
    """The (low, high) ends of an interval such as "(0, √2]"."""
    return tuple(math.sqrt(float(end[1:])) if end[0] == "√" else float(end)
                 for end in span[1:-1].split(", "))


def _check(row: _Field, name: str, val, each: str = ""):
    """``val`` checked against the type, range and ceiling of ``row`` and
    named ``name``: a real or number as a float, a list entry by entry."""
    types = tuple(t for part in row.type.split(" or ") for t in _TYPES[part.split(" of ")[0]])
    # bool is a subclass of int, but true/false is never a count or a number
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError(f"{name}: expected {' or '.join(t.__name__ for t in types)}, "
                          f"got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {val!r}")
    if isinstance(val, list):
        entry_row = row._replace(type=row.type.rpartition(" of ")[2])
        for entry in val:
            _check(entry_row, name, entry, "each ")
        return val
    if row.type == "enum" and val not in row.range:
        raise ConfigError(f"{name}: unknown {name.rpartition('.')[2]} {val!r}")
    if float in types:
        try:
            val = float(val)
        except OverflowError:   # an integer past the float range
            raise ConfigError(f"{name}: {each}must be finite, got an integer past the float "
                              "range") from None
    bound = None
    if row.range and row.type != "enum":
        low, high = _ends(row.range)
        if not (low < val or row.range[0] == "[" and val == low) or not (
                val < high or row.range[-1] == "]" and val == high):
            bound = (f"lie in {row.range[0]}{low:g}, {high:g}{row.range[-1]}"
                     if math.isfinite(low) and math.isfinite(high)
                     else "be positive" if low == 0 and row.range[0] == "("
                     else f"be at least {low:g}" if math.isfinite(low) else f"be at most {high:g}")
    if row.ceiling is not None and val > row.ceiling:
        bound = f"be at most {row.ceiling}"
    if bound:
        raise ConfigError(f"{name}: {each}must {bound}, "
                          f"got {f'{val:g}' if isinstance(val, float) else val}")
    return val


def _field(config: dict, path: str) -> tuple:
    """(name, value) of the field ``path``: given in ``config`` (each section
    checked by ``_section``) or else in the field its default names, checked
    against the row of ``path`` and named where given; else (``path``, the
    row's default), None for an optional field."""
    name = path
    while True:
        section, _, key = name.rpartition(".")
        cfg = (config.get(section) or {}) if section else config
        if key in cfg:
            return name, _check(_FIELDS[path], name, cfg[key])
        default = _FIELDS[name].default
        if not isinstance(default, _From):
            break
        name = default.path
    if default is ...:
        raise ConfigError(f"{path}: required field is missing")
    return path, default


def _read(config: dict, path: str):
    return _field(config, path)[1]


def _known(cfg: dict, section: str) -> dict:
    """``cfg``, checked to hold only keys of ``_KEYS[section]``."""
    for key in cfg:
        if key not in _KEYS[section]:
            raise ConfigError(f"{_name(section, key)}: unknown field")
    return cfg


def _reads(cfg: dict, section: str, keys, reader: str) -> None:
    """Reject a key of ``cfg`` besides "kind" that is not in ``keys``, the
    keys that ``reader`` reads."""
    for key in cfg:
        if key != "kind" and key not in keys:
            raise ConfigError(f"{_name(section, key)}: not read by {reader}")


def _section(config: dict, name: str, optional: bool = False) -> dict:
    """The mapping ``config[name]``; an optional section may be left out."""
    cfg = config.get(name)
    if cfg is None and not optional:
        raise ConfigError(f"{name}: section is missing")
    if not isinstance(cfg, (dict, type(None))):
        raise ConfigError(f"{name}: expected dict, got {cfg!r}")
    return _known(cfg or {}, name)


def _kind(config: dict, section: str) -> str:
    """The kind of ``config[section]``, checked to be given only the keys it reads."""
    cfg = _section(config, section)
    kind = _read(config, f"{section}.kind")
    _reads(cfg, section, _KIND_KEYS[section][kind], f"kind {kind!r}")
    return kind


# libyaml's parser where PyYAML has it (the same documents, several times faster)
class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    def construct_document(self, node):
        _unique(node, "")
        return super().construct_document(node)


def load_config(path) -> dict:
    """The config document at ``path``, as written: no default is filled in,
    since meta.json repeats it and ``config_hash`` hashes it."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _finite(raw, "")
    version = _read(raw, "version")
    if version != 1:
        raise ConfigError(f"version: unsupported config version {version!r}")
    return _known(raw, "")


def _unique(node, name: str, holders=()) -> None:
    """Reject a key given twice in one mapping of a YAML node tree, naming
    its path: YAML would keep the last value.  Reject, too, an alias to a
    node that holds it (``holders``), which would nest without end."""
    if any(node is holder for holder in holders):
        raise ConfigError(f"{name}: an alias refers to a node that holds it")
    holders += (node,)
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for key, value in node.value:
            if isinstance(key, yaml.ScalarNode):    # any other key fails the construction
                if key.value in seen:
                    raise ConfigError(f"{_name(name, key.value)}: given twice")
                seen.add(key.value)
                _unique(value, _name(name, key.value), holders)
    elif isinstance(node, yaml.SequenceNode):
        for entry in node.value:
            _unique(entry, name, holders)


def _finite(val, name: str) -> None:
    """Reject YAML's .nan and .inf anywhere in a parsed document, naming the
    path, also in a section the command does not read: meta.json repeats the
    whole config, and JSON has no such number."""
    if isinstance(val, dict):
        for key, entry in val.items():
            _finite(entry, _name(name, key))
    elif isinstance(val, list):
        for entry in val:
            _finite(entry, name)
    elif isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {val!r}")
