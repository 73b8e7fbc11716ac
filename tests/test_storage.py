import ast
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import densemble
from densemble import storage
from densemble.storage import write_container, write_json


class TestWholeWrites:
    def _fail_commit(self, monkeypatch):
        def boom(src, dst):
            raise OSError("interrupted before the rename")
        monkeypatch.setattr(os, "replace", boom)

    def test_interrupted_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        write_json(path, {"v": 1})
        self._fail_commit(monkeypatch)
        with pytest.raises(OSError, match="before the rename"):
            write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 1}

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.params"
        self._fail_commit(monkeypatch)
        with pytest.raises(OSError, match="before the rename"):
            write_container(path, {"kind": "x"}, {"w": np.arange(3.0)})
        assert not path.exists()

    def test_creates_parent_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "a" / "b" / "report.csv"
        storage.write_csv(path, ["x", "y"], [[1, "0.5"], [2, "1.5"]])
        assert path.read_bytes() == b"x,y\r\n1,0.5\r\n2,1.5\r\n"
        assert [p.name for p in path.parent.iterdir()] == ["report.csv"]


class TestReaders:
    def test_csv_roundtrip_with_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        storage.write_csv(path, ["a", "b"], [["x", 1], ["y", 2]])
        assert storage.read_csv(path, ["a", "b"]) == [(2, ["x", "1"]), (3, ["y", "2"])]

    def test_csv_row_of_wrong_width_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nx,1\ny\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 2 columns, got 1")):
            storage.read_csv(path, ["a", "b"])

    @pytest.mark.parametrize("text,why", [("", "header"), ("b,a\n", "header"),
                                          ("a,b\n", "no records")])
    def test_csv_bad_header_or_no_rows_names_file(self, tmp_path, text, why):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + why):
            storage.read_csv(path, ["a", "b"])

    def test_csv_line_csv_cannot_parse_names_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + "x" * 200_000 + ",1\n")  # over csv's field size limit
        with pytest.raises(ValueError, match=re.escape(f"{path}: field larger than field limit")):
            storage.read_csv(path, ["a", "b"])

    def test_json_error_names_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a": 1,')
        with pytest.raises(ValueError, match=re.escape(f"{path}: invalid JSON: ")):
            storage.read_json(path)

    @pytest.mark.parametrize("meta", [
        [1, 2],  # not an object
        {"format_version": 1},  # no array index
        {"format_version": 1, "arrays": [{"name": "w", "dtype": "<f8", "shape": [2],
                                          "offset": 0}]},  # an entry without nbytes
        # a negative offset that would otherwise slice bytes 8..24 of the payload
        {"format_version": 1, "arrays": [{"name": "w", "dtype": "<f8", "shape": [2],
                                          "offset": -24, "nbytes": 16}]},
        {"format_version": 1, "arrays": [{"name": "w", "dtype": "zz", "shape": [2],
                                          "offset": 0, "nbytes": 16}]},
        {"format_version": 1, "arrays": [{"name": "w", "dtype": "<f8", "shape": [3],
                                          "offset": 0, "nbytes": 16}]},
    ], ids=["list", "no-arrays", "no-nbytes", "negative-offset", "bad-dtype", "bad-shape"])
    def test_bad_container_header_names_file(self, tmp_path, meta):
        # written by hand: write_container always writes a well-formed index
        path = tmp_path / "c.params"
        hjson = json.dumps(meta).encode()
        path.write_bytes(storage.MAGIC + struct.pack(">I", len(hjson)) + hjson + bytes(32))
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad container header: ")):
            storage.read_container(path, path.read_bytes())


def _artifact_writes(tree: ast.AST):
    """(line, what) for every file write or CSV use in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            yield node.lineno, "import csv"
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            yield node.lineno, "from csv import"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                yield node.lineno, f".{func.attr}()"
            elif isinstance(func, ast.Name) and func.id == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                for mode in modes:
                    if not isinstance(mode, ast.Constant) or set("wax") & set(mode.value):
                        yield node.lineno, "open() for writing"


def test_only_storage_writes_files_and_uses_csv():
    src = Path(densemble.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(src.glob("*.py")) if path.name != "storage.py"
        for line, what in _artifact_writes(ast.parse(path.read_text()))
    ]
    assert found == []
    # the check itself sees storage's writes
    assert {w for _, w in _artifact_writes(ast.parse(Path(storage.__file__).read_text()))} == {
        "import csv", "open() for writing"}


def _callers(path: Path, name: str):
    """'<module>.<top-level name>' for every call of `name` in a module."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                yield f"{path.stem}.{getattr(top, 'name', '<module>')}"


def test_only_checked_cache_reads_caches():
    # every cache and every params file the program reads is checked against
    # the other and the data
    src = Path(densemble.__file__).parent
    for name in ("load_cache", "load_params"):
        callers = [c for path in sorted(src.glob("*.py")) for c in _callers(path, name)]
        assert callers == ["cli._checked_cache"], name


def test_only_config_builds_specs_with_defaults():
    # an attack manifest is read as written: AttackSpec.make's defaults would
    # fill a null alpha and drop a pgd cell's kernel bank
    src = Path(densemble.__file__).parent
    callers = [c for path in sorted(src.glob("*.py")) for c in _callers(path, "make")]
    assert callers == ["config.attack_cells", "config.<module>"]


def _attribute_readers(path: Path, attr: str):
    """'<module>.<top-level name>' for every read of the attribute `attr` in a module."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == attr \
                    and isinstance(node.ctx, ast.Load):
                yield f"{path.stem}.{getattr(top, 'name', '<module>')}"


def test_only_checked_cache_judges_provenance():
    # one rule decides whether an arm belongs to the run: no command compares
    # a cache's provenance on its own, and save_cache only writes it
    src = Path(densemble.__file__).parent
    readers = [r for path in sorted(src.glob("*.py"))
               for r in _attribute_readers(path, "provenance")]
    assert readers == ["cli._checked_cache", "decorrelation.save_cache"]


def _listed_definitions(path: Path):
    """'<module>.<name>' for every function or class a module lists in `__all__`."""
    tree = ast.parse(path.read_text())
    listed = [name for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)
              for name in ast.literal_eval(node.value)]
    return {f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in listed}


def _package_references(path: Path, module: str):
    """'<module>.<name>' for every use of a densemble module's name in a file:
    a bare name (its own or imported from the module) or an attribute of the
    imported module."""
    tree = ast.parse(path.read_text())
    modules, names = {}, {}  # local name -> densemble module, -> '<module>.<name>'
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("densemble")):
            source = (node.module or "").removeprefix("densemble").lstrip(".")
            for alias in node.names:
                if source:
                    names[alias.asname or alias.name] = f"{source}.{alias.name}"
                else:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield names.get(node.id, f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            yield f"{modules[node.value.id]}.{node.attr}"


# Public names only the acceptance criteria call: they check the FFT helpers
# and the filter bank's Parseval identity directly.
ACCEPTANCE_ONLY = {"autodiff.fft", "autodiff.ifft", "fourier.band_energy"}


def test_every_public_name_has_a_caller():
    # a function or class exported by a module is used somewhere in the
    # program, so no second copy of a computation outlives its last caller
    src = Path(densemble.__file__).parent
    listed = set().union(*(_listed_definitions(path) for path in src.glob("*.py")))
    used = {r for path in src.glob("*.py") for r in _package_references(path, path.stem)}
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    used |= {f"{m}.{f}" for m, f in re.findall(r'"densemble\.(\w+):(\w+)"', pyproject)}  # scripts
    assert sorted(listed - used) == sorted(ACCEPTANCE_ONLY)
    acceptance = Path(__file__).with_name("test_acceptance.py")
    assert ACCEPTANCE_ONLY <= set(_package_references(acceptance, "test_acceptance"))


def _swallowing_handlers(path: Path):
    """'<module>.<top-level name>' for every handler of any exception (bare
    `except`, `Exception` or `BaseException`) whose body does not end in `raise`."""
    catch_all = {"Exception", "BaseException"}
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if (node.type is None or catch_all & {getattr(t, "id", None) for t in types}) \
                    and not isinstance(node.body[-1], ast.Raise):
                yield f"{path.stem}.{getattr(top, 'name', '<module>')}"


def test_no_handler_swallows_every_exception():
    # only the CLI boundary turns any error into an exit code; everywhere else
    # a catch-all handler re-raises, so no failure can quietly keep going
    src = Path(densemble.__file__).parent
    found = [h for path in sorted(src.glob("*.py")) for h in _swallowing_handlers(path)]
    assert found == ["cli.main"]


# Every default left in src/densemble and what calls without the argument
# (ROADMAP item 5's pinned list); a default goes once nothing needs it.
PINNED_DEFAULTS = {
    "attacks.AttackSpec.make": {"steps", "alpha", "kernel_bank"},  # perfbench, acceptance 3
    "autodiff.mean": {"axis"},  # acceptance 1, perfbench/kernels.py
    "autodiff.Tensor.__init__": {"requires_grad", "parents", "backward_fn"},  # every leaf
    "cli.main": {"argv"},  # cli.entry, the console script
    "ensemble.AdamConfig": {"beta1", "beta2", "eps"},  # perfbench/kernels.py
    "ensemble.adam_step": {"cfg"},  # perfbench/kernels.py
    "ensemble.AdamState": {"t"},  # AdamState.init starts at step 0
    "model.ArchConfig": {"conv_blocks", "feature_dim", "num_classes", "input_length"},  # perfbench
    "model.make_param_tensors": {"requires_grad"},  # perfbench/child.py
    "model.forward": {"param_tensors"},  # predict, build_cache and the attacks
}


def _defaults(path: Path) -> dict[str, set[str]]:
    """'<module>.<qualified name>' -> its parameters and class fields that
    have a default; a `field(...)` without `default` gives none."""
    found: dict[str, set[str]] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                pos = a.posonlyargs + a.args
                names = {p.arg for p in pos[len(pos) - len(a.defaults):]}
                names |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
            elif isinstance(child, ast.ClassDef):
                names = {f.target.id for f in child.body
                         if isinstance(f, ast.AnnAssign) and f.value is not None
                         and not (isinstance(f.value, ast.Call)
                                  and getattr(f.value.func, "id", None) == "field"
                                  and not {"default", "default_factory"}
                                  & {k.arg for k in f.value.keywords})}
            else:
                visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if names:
                found[name] = names
            visit(child, name)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_default_is_pinned():
    # a default that no caller needs hides a second way to call the function;
    # each one left is needed by the callers named beside it
    src = Path(densemble.__file__).parent
    found = {k: v for path in sorted(src.glob("*.py")) for k, v in _defaults(path).items()}
    assert found == PINNED_DEFAULTS
