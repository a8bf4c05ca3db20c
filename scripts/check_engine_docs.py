#!/usr/bin/env python3
"""Docs lint: the reference docs must stay in sync with the code.

Four checks, run from the repo root (exits non-zero with a report when
any doc has rotted):

1. docs/ENGINES.md: for every engine section, the parameter keys listed
   in its param table must be exactly the engine's one param list: the
   PTSB_PARAM(field) rows of ForEachParam in its options.h, plus the
   shared rows of ForEachCommonParam in src/kv/params.h when its list
   calls that. (PTSB_PARAM makes each key its field's name, so the
   compiler already ties every key to an option-struct field.)
2. docs/EXPERIMENTS.md: the bench table's first-column names must be
   exactly the figure runner's ids (the `.id = "..."` rows of
   bench/figures.cc, run as `figures --figure=ID`) plus every other
   bench/*.cc binary (a figure or bench without a row, or a row without
   one, fails).
3. docs/SIMULATION.md: the parameter tables in its "SSD timing model"
   section must list exactly the numeric/bool fields of the structs in
   src/ssd/config.h (FlashGeometry, SsdTiming, SsdConfig).
4. README.md: the `run_experiment` flag table must list exactly the
   flags examples/run_experiment.cpp parses (underscore spellings are
   treated as aliases and skipped).
"""
import re
import sys
from pathlib import Path

# engine section name in ENGINES.md -> options header with its param list
ENGINES = {
    "lsm": "src/lsm/options.h",
    "btree": "src/btree/options.h",
    "alog": "src/alog/options.h",
}
COMMON_PARAMS = Path("src/kv/params.h")

DOC = Path("docs/ENGINES.md")
EXPERIMENTS_DOC = Path("docs/EXPERIMENTS.md")
SIMULATION_DOC = Path("docs/SIMULATION.md")
SSD_CONFIG = Path("src/ssd/config.h")
BENCH_DIR = Path("bench")
FIGURES = BENCH_DIR / "figures.cc"
README = Path("README.md")
RUN_EXPERIMENT = Path("examples/run_experiment.cpp")


def docs_sections(text: str) -> dict:
    """Maps engine name -> its section body (## `<engine>` ... until next ##)."""
    sections = {}
    matches = list(re.finditer(r"^## `(\w+)`", text, re.MULTILINE))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[m.group(1)] = text[m.start():end]
    return sections


def table_keys(section: str) -> set:
    """Backticked keys in the first column of markdown table rows."""
    keys = set()
    for line in section.splitlines():
        m = re.match(r"^\|\s*`(\w+)`\s*\|", line)
        if m:
            keys.add(m.group(1))
    return keys


def param_rows(text: str, function: str) -> set:
    """Keys of the PTSB_PARAM(field) rows in the body of `function`."""
    m = re.search(r"\bvoid " + function + r"\(.*?\{(.*?)^\}", text,
                  re.MULTILINE | re.DOTALL)
    return set(re.findall(r"PTSB_PARAM\((\w+)\)", m.group(1))) if m else set()


def param_list(header: Path) -> set:
    """The engine's one param list: its ForEachParam rows, plus the shared
    ForEachCommonParam rows when it visits them."""
    text = header.read_text()
    keys = param_rows(text, "ForEachParam")
    if "ForEachCommonParam(" in text:
        keys |= param_rows(COMMON_PARAMS.read_text(), "ForEachCommonParam")
    return keys


def lint_experiments(failures: list) -> int:
    """EXPERIMENTS.md rows <-> figure ids and other bench binaries.

    Returns rows checked."""
    if not EXPERIMENTS_DOC.exists():
        failures.append(f"{EXPERIMENTS_DOC} is missing")
        return 0
    documented = table_keys(EXPERIMENTS_DOC.read_text())
    figures = set(re.findall(r'\.id = "(\w+)"', FIGURES.read_text()))
    benches = {p.stem for p in BENCH_DIR.glob("*.cc")} - {FIGURES.stem}
    for name in sorted(documented - figures - benches):
        failures.append(
            f"experiments: `{name}` documented in {EXPERIMENTS_DOC} but is "
            f"neither a figure id in {FIGURES} nor a bench/*.cc binary")
    for name in sorted(figures - documented):
        failures.append(
            f"experiments: figure `{name}` in {FIGURES} has no row in "
            f"{EXPERIMENTS_DOC}")
    for name in sorted(benches - documented):
        failures.append(
            f"experiments: bench/{name}.cc has no row in {EXPERIMENTS_DOC}")
    return len(documented)


def ssd_config_fields() -> set:
    """Numeric/bool fields of the structs in src/ssd/config.h (the timing
    and geometry knobs; pointers, strings and nested structs are not
    tunables the doc tables need to list)."""
    return set(re.findall(
        r"^\s*(?:uint64_t|int64_t|double|int|bool|std::array<[^>]*>)\s+(\w+)\s*=",
        SSD_CONFIG.read_text(), re.MULTILINE))


def lint_simulation(failures: list) -> int:
    """SIMULATION.md parameter tables <-> src/ssd/config.h fields.
    Returns params checked."""
    if not SIMULATION_DOC.exists():
        failures.append(f"{SIMULATION_DOC} is missing")
        return 0
    text = SIMULATION_DOC.read_text()
    # Only the parameter tables of the "SSD timing model" section name
    # config fields; later tables (API composition) use other names.
    m = re.search(r"^## The SSD timing model.*?(?=^## (?!#))", text,
                  re.MULTILINE | re.DOTALL)
    if m is None:
        failures.append(
            f"simulation: no '## The SSD timing model' section in "
            f"{SIMULATION_DOC}")
        return 0
    documented = table_keys(m.group(0))
    fields = ssd_config_fields()
    for name in sorted(documented - fields):
        failures.append(
            f"simulation: `{name}` documented in {SIMULATION_DOC} but not "
            f"a field of {SSD_CONFIG}")
    for name in sorted(fields - documented):
        failures.append(
            f"simulation: {SSD_CONFIG} field `{name}` missing from the "
            f"parameter tables in {SIMULATION_DOC}")
    return len(documented)


def lint_readme_flags(failures: list) -> int:
    """README `run_experiment` flag table <-> flags run_experiment.cpp
    parses. Underscore spellings in the code would be compatibility
    aliases and are not required in the table. Returns flags checked."""
    if not README.exists():
        failures.append(f"{README} is missing")
        return 0
    text = README.read_text()
    m = re.search(r"^### `run_experiment` flags.*?(?=^## )", text,
                  re.MULTILINE | re.DOTALL)
    if m is None:
        failures.append(
            f"readme: no '### `run_experiment` flags' section in {README}")
        return 0
    documented = set(re.findall(r"^\|\s*`--([\w-]+?)[=`]", m.group(0),
                                re.MULTILINE))
    code = set(re.findall(r'starts_with\("--([\w-]+?)[="]',
                          RUN_EXPERIMENT.read_text()))
    code = {f for f in code if "_" not in f}  # aliases need no row
    for name in sorted(documented - code):
        failures.append(
            f"readme: `--{name}` documented in {README} but not parsed by "
            f"{RUN_EXPERIMENT}")
    for name in sorted(code - documented):
        failures.append(
            f"readme: {RUN_EXPERIMENT} parses `--{name}` but the README "
            f"flag table has no row for it")
    return len(documented)


def main() -> int:
    if not DOC.exists():
        print(f"docs lint: {DOC} is missing", file=sys.stderr)
        return 1
    sections = docs_sections(DOC.read_text())
    failures = []
    for engine, header in ENGINES.items():
        if engine not in sections:
            failures.append(f"{engine}: no `## `{engine}`` section in {DOC}")
            continue
        documented = table_keys(sections[engine])
        listed = param_list(Path(header))
        if not documented:
            failures.append(f"{engine}: no param table rows found in {DOC}")
            continue
        if not listed:
            failures.append(f"{engine}: no PTSB_PARAM rows found in {header}")
            continue
        for key in sorted(documented - listed):
            failures.append(
                f"{engine}: `{key}` documented in {DOC} but not in the "
                f"ForEachParam list of {header}")
        for key in sorted(listed - documented):
            failures.append(
                f"{engine}: `{key}` in the ForEachParam list of {header} "
                f"but missing from the param table in {DOC}")
    n_benches = lint_experiments(failures)
    n_sim = lint_simulation(failures)
    n_flags = lint_readme_flags(failures)
    if failures:
        print("docs lint FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    total = sum(len(table_keys(sections[e])) for e in ENGINES if e in sections)
    print(f"docs lint OK: {total} engine params checked against "
          f"{len(ENGINES)} engine param lists, {n_benches} bench rows against "
          f"figure ids and bench/, {n_sim} SSD timing params against {SSD_CONFIG}, "
          f"{n_flags} README flags against {RUN_EXPERIMENT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
