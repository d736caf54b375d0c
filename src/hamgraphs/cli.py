"""Command-line interface: JSON in, JSON (or SVG/DOT) out.

Exit codes: 0 success, 2 domain rejection (invalid graph, impossible
blow-up, classification failure), 1 I/O or usage problems.  Identical
inputs produce byte-identical outputs.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import blowup_calculus, classify, dh_measure, homology
from .chain_arith import ChainError
from .graph_core import (DecoratedGraph, GraphError, graph_from_json,
                         graph_to_json, is_isomorphic, require_valid,
                         validate_graph)
from .rational import _MAX_DIGITS, fmt_rat, parse_rat
from .toric_geometry import (graph_to_polygon, polygon_from_json,
                             polygon_to_graph, require_valid_polygon,
                             validate_delzant)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _json_int(text):
    """int(text) for a JSON integer, refused past the digits fmt_rat can
    print, before int refuses it with Python's own advice."""
    if len(text) - text.startswith("-") > _MAX_DIGITS:
        raise ValueError("an integer has more than %d digits" % _MAX_DIGITS)
    return int(text)


def _read_json(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin, parse_int=_json_int)
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise CliError("cannot read %s: %s" % (path or "stdin", exc), 1)


def _write(text, path):
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc), 1)


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _dumps(obj):
    """The text of json.dumps(obj, indent=2, sort_keys=True), byte for
    byte, for the types the CLI emits: str, int, bool, None, and lists,
    tuples and dicts with str keys of them.  Any other type (a float, a
    dict subclass, a non-str key) raises TypeError.  With indent the
    stdlib skips its C encoder; this writer escapes strings with the C
    escaper and joins its parts once."""
    parts = []
    _write_value(obj, "\n", parts.append)
    return "".join(parts)


def _write_value(o, pad, append):
    """Append the parts of o at the indent pad, a newline and 2 spaces
    per level."""
    t = type(o)
    if t is str:
        append(encode_basestring_ascii(o))
    elif t is int:
        append(int.__repr__(o))  # the stdlib's 4300-digit ValueError
    elif t is bool or o is None:
        append(_CONSTANTS[o])
    elif t is list or t is tuple:
        if not o:
            append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in o:
            append(sep)
            _write_value(item, inner, append)
            sep = "," + inner
        append(pad + "]")
    elif t is dict:
        if not o:
            append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            append(sep + encode_basestring_ascii(key) + ": ")  # str keys
            _write_value(value, inner, append)
            sep = "," + inner
        append(pad + "}")
    else:
        raise TypeError("cannot write a %s as CLI JSON" % t.__name__)


def _emit_json(data, path):
    _write(_dumps(data) + "\n", path)


def _load_graph(path):
    return graph_from_json(_read_json(path))


def _load_object(path):
    """Graph, polygon, or density, recognized by JSON shape."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise CliError("malformed input JSON: the top level is a %s, not an "
                       "object" % type(data).__name__, 2)
    if "breakpoints" in data:
        bps, vals = data["breakpoints"], data.get("values")
        if not (isinstance(bps, list) and bps and isinstance(vals, list)):
            raise CliError("malformed density JSON: breakpoints and values "
                           "must be arrays, with at least one breakpoint", 2)
        return dh_measure.PiecewiseLinearDensity(
            [parse_rat(b) for b in bps], [parse_rat(v) for v in vals])
    verts = data.get("vertices", [])
    if not isinstance(verts, list):
        raise CliError("malformed input JSON: vertices is not a list", 2)
    if verts and isinstance(verts[0], dict):
        return graph_from_json(data)
    return polygon_from_json(data)


def _parse_seed(text):
    if ":" in text:
        family, raw = text.split(":", 1)
        args = [part.strip() for part in raw.split(",")]
    else:
        family, args = text, []
    return family, classify.minimal_graph(family, *args)


def _cmd_validate(ns):
    obj = _load_object(getattr(ns, "in"))
    if isinstance(obj, dh_measure.PiecewiseLinearDensity):
        raise CliError("validate takes a graph or a polygon, not a density", 2)
    if isinstance(obj, DecoratedGraph):
        problems = validate_graph(obj)
    else:
        problems = validate_delzant(obj)
    if problems:
        _emit_json({"valid": False, "problems": problems}, ns.out)
        return 2
    _emit_json({"valid": True}, ns.out)
    return 0


def _cmd_iso(ns):
    g1, g2 = (require_valid(_load_graph(path)) for path in ns.paths)
    same = is_isomorphic(g1, g2, ns.mode)
    _emit_json({"isomorphic": same, "mode": ns.mode}, ns.out)
    return 0


def _cmd_dh(ns):
    g = _load_graph(getattr(ns, "in"))
    rho = dh_measure.density(g)
    ext = dh_measure.extremal_self_intersections(g)
    # the picture first, so a failed write leaves no JSON behind
    if ns.svg:
        from .render import density_svg  # loaded only to draw
        _write(density_svg(rho), ns.svg)
    _emit_json({"density": rho.to_json(),
                "e_min": fmt_rat(ext.e_min), "e_max": fmt_rat(ext.e_max),
                "total_mass": fmt_rat(dh_measure.total_mass(rho))}, ns.out)
    return 0


def _cmd_polygon2graph(ns):
    P = polygon_from_json(_read_json(getattr(ns, "in")))
    _emit_json(graph_to_json(polygon_to_graph(P)), ns.out)
    return 0


def _cmd_graph2polygon(ns):
    g = _load_graph(getattr(ns, "in"))
    _emit_json(graph_to_polygon(g).to_json(), ns.out)
    return 0


def _cmd_blowup(ns):
    g = _load_graph(getattr(ns, "in"))
    if ns.vertex is None:
        if getattr(ns, "lambda") is not None:
            raise CliError("--vertex is required with --lambda", 1)
        sites = blowup_calculus.blowup_sites(g)
        rows = []
        for s in sites:
            # no blow-up of exactly the supremum is admissible
            rows.append({"vertex": s.vertex, "tag": s.tag,
                         "max_size": fmt_rat(blowup_calculus.max_size(g, s)),
                         "attainable": False})
        _emit_json({"sites": rows}, ns.out)
        return 0
    if getattr(ns, "lambda") is None:
        raise CliError("--lambda is required with --vertex", 1)
    lam = parse_rat(getattr(ns, "lambda"))
    _emit_json(graph_to_json(blowup_calculus.blowup(g, ns.vertex, lam)),
               ns.out)
    return 0


def _site_row(s):
    """The JSON row of a blow-down site or minimal-model step."""
    return {"pattern": s.pattern, "vertices": list(s.vertices),
            "lambda": fmt_rat(s.lam), "side": s.side}


def _cmd_blowdown(ns):
    g = _load_graph(getattr(ns, "in"))
    sites = blowup_calculus.blowdown_sites(g)
    if ns.site is None:
        _emit_json({"sites": [_site_row(s) for s in sites]}, ns.out)
        return 0
    if not 0 <= ns.site < len(sites):
        raise CliError("site index out of range", 1)
    # the site comes from the list, so only its rewrite is built
    _emit_json(graph_to_json(blowup_calculus._rewrite(g, sites[ns.site])),
               ns.out)
    return 0


def _cmd_minimal(ns):
    g = _load_graph(getattr(ns, "in"))
    minimal, steps = blowup_calculus.reduce_to_minimal(g)
    _emit_json({"family": classify.match_minimal_family(minimal),
                "steps": [_site_row(s) for s in steps],
                "minimal": graph_to_json(minimal)}, ns.out)
    return 0


def _cmd_enumerate(ns):
    if not ns.seed:
        raise CliError("at least one --seed is required", 1)
    if ns.max_blowups < 0:
        raise CliError("--max-blowups must be at least 0, not %d"
                       % ns.max_blowups, 1)
    # enumerate_graphs keys each seed by its --seed text, which names it in
    # an error; the index names it FAMILY#i, i the first place of that text
    seeds, names = [], {}
    for i, text in enumerate(ns.seed):
        fam, g = _parse_seed(text)
        seeds.append((text, g))
        names.setdefault(text, "%s#%d" % (fam, i))
    recs = classify.enumerate_graphs(seeds, ns.max_blowups)
    index = []
    outdir = ns.out if ns.out not in (None, "-") else None
    if outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (outdir, exc), 1)
    written = []  # class files of this run, removed if the run fails
    try:
        for i, rec in enumerate(recs):
            name = "class_%04d_%s.json" % (i, rec.digest)
            index.append({"file": name, "seed": names[rec.seed_key],
                          "blowups": rec.depth, "digest": rec.digest})
            if outdir:
                path = os.path.join(outdir, name)
                _emit_json(graph_to_json(rec.graph), path)
                written.append(path)
        _emit_json(index, os.path.join(outdir, "index.json") if outdir
                   else ns.out)
    except CliError:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return 0


def _cmd_classify(ns):
    g = _load_graph(getattr(ns, "in"))
    P = classify.classify_isolated(g)
    _emit_json(P.to_json(), ns.out)
    return 0


def _cmd_homology(ns):
    g = _load_graph(getattr(ns, "in"))
    data = homology.intersection_matrix(g)
    values = homology.class_values(g)
    lines = []
    width = max(len(lab) for lab in data.labels)
    for lab, row in zip(data.labels, data.matrix):
        lines.append("%-*s %s" % (width, lab,
                                  " ".join("%3d" % x for x in row)))
    _emit_json(dict(data.to_json(),
                    values={lab: fmt_rat(values[lab]) for lab in data.labels},
                    pretty=lines), ns.out)
    return 0


def _cmd_render(ns):
    obj = _load_object(getattr(ns, "in"))
    if isinstance(obj, DecoratedGraph):
        require_valid(obj)
    elif not isinstance(obj, dh_measure.PiecewiseLinearDensity):
        require_valid_polygon(obj)
    from .render import render  # loaded only to draw
    doc = render(obj, ns.format)
    _write(doc, ns.svg or ns.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate, "iso": _cmd_iso, "dh": _cmd_dh,
    "polygon2graph": _cmd_polygon2graph, "graph2polygon": _cmd_graph2polygon,
    "blowup": _cmd_blowup, "blowdown": _cmd_blowdown,
    "minimal": _cmd_minimal, "enumerate": _cmd_enumerate,
    "classify": _cmd_classify, "homology": _cmd_homology,
    "render": _cmd_render,
}


_SUBPARSERS = {}  # command name -> its own parser, filled by _parser()


@functools.cache
def _parser():
    """The full parser, with each command's parser in _SUBPARSERS."""
    p = argparse.ArgumentParser(
        prog="hamgraphs",
        description="Decorated graphs of 4-dimensional Hamiltonian "
                    "circle spaces: validation, Duistermaat-Heckman "
                    "measures, polygons, blow-ups, classification.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = _SUBPARSERS[name] = sub.add_parser(name)
        if name == "iso":
            sp.add_argument("paths", nargs=2)
        else:
            sp.add_argument("--in", default=None,
                            help="input JSON path (default stdin)")
        sp.add_argument("--out", default=None,
                        help="output path (default stdout)")
        if name == "iso":
            sp.add_argument("--mode", choices=["exact", "shift"],
                            default="exact")
        if name in ("dh",):
            sp.add_argument("--svg", default=None)
        if name == "blowup":
            sp.add_argument("--vertex", default=None)
            sp.add_argument("--lambda", default=None, metavar="P/Q")
        if name == "blowdown":
            sp.add_argument("--site", type=int, default=None)
        if name == "enumerate":
            sp.add_argument("--seed", action="append", default=[],
                            metavar="FAMILY:params")
            sp.add_argument("--max-blowups", type=int, default=0)
        if name == "render":
            sp.add_argument("--format", choices=["svg", "dot"],
                            default="svg")
            sp.add_argument("--svg", default=None)
    return p


def _parse(argv):
    """(command, namespace) of argv.  A command's own parser reads its
    arguments; the full parser reads argv when there is no command, an
    unknown one, a help flag, or an argument the command's parser leaves
    over, so usage errors and help read as the full parser prints them."""
    full = _parser()
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is not None and "-h" not in argv and "--help" not in argv:
        ns, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return argv[0], ns
    ns = full.parse_args(argv)
    return ns.command, ns


def run(argv=None):
    try:
        command, ns = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[command](ns)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (GraphError, ChainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
