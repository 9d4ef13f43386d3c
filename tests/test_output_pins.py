"""Pinned SHA-256 of the benchmark's seed-0 corpora and of every output that
``extract``, ``years`` and ``eval`` write on them.

The corpora are built by ``perfbench/corpora.py`` itself, so these pins hold
the corpora the benchmark times.  Each file has its own hash, so a change that
moves one byte names that file.  A change that alters outputs on purpose
updates ``PINS`` and says in ``CHANGES.md`` which files changed and why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from migrec import cli

REPO = Path(__file__).resolve().parents[1]


def _load_corpora():
    # perfbench/ is not a package; load its corpus builder from its file
    spec = importlib.util.spec_from_file_location("perfbench_corpora", REPO / "perfbench" / "corpora.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


corpora = _load_corpora()

PINS = {
    "clean": {
        "gold_records.jsonl": "25ef0d86ebe86f379d36212f0c18838d8319519ad9de5b60d02aac3960f257ef",
        "gold_years.csv": "133da712b9f8fce3ea094dce770f6b25420738e5044e418913cfa385d0bd8ebe",
        "observed/": "73208adac225718aab76bcb35ae4dd98bb7e8cd2bf9940a7707ada0fd02fde90",
        "gold/": "73208adac225718aab76bcb35ae4dd98bb7e8cd2bf9940a7707ada0fd02fde90",
        "records_w1.csv": "9f4a3f170c75cd35c945ba3c792bce5ed1df7eb4e5c36e6a336d83dddeb8650b",
        "summary_w1.json counts": "d31f73d7b9611e9655af7cda98b3c182b648a3817507434257dd35c6355fdfb2",
        "records_w2.csv": "9f4a3f170c75cd35c945ba3c792bce5ed1df7eb4e5c36e6a336d83dddeb8650b",
        "summary_w2.json counts": "d31f73d7b9611e9655af7cda98b3c182b648a3817507434257dd35c6355fdfb2",
        "years.csv": "bbbe59c5174d225c75a5ebbb8102115b29cee2c5f38d07a8ae558ea3c36e9dd4",
        "eval/cell_classification.csv": "e3b4aaef91e050e0fac4b69a789b329af700a3faf175292400730bb8b91d0959",
        "eval/detection_metrics.csv": "b8125e4f498091348f5c0cde13d4973c7940a357895560a1213ea4686034d62c",
        "eval/skew_angles.csv": "10d8d55b8d439a94bfe41d326d3f751a55ade1a3cb0f2cb8f93a8b21e477ee3e",
        "eval/text_metrics.csv": "19ee83ba499d71abf2cf9e362c77bf479b5f22f89494046e53ee80bd12a0a5c2",
        "eval/year_metrics.csv": "f12e9171e3bf4ed2d7e71f1cb354d228d51c211ba833f43db1ac152e773e3da4",
    },
    "noisy": {
        "gold_records.jsonl": "25ef0d86ebe86f379d36212f0c18838d8319519ad9de5b60d02aac3960f257ef",
        "gold_years.csv": "133da712b9f8fce3ea094dce770f6b25420738e5044e418913cfa385d0bd8ebe",
        "observed/": "7149353b98391a7da22867d0aa47881a3900e786da34a810902f316a350a5a3d",
        "gold/": "73208adac225718aab76bcb35ae4dd98bb7e8cd2bf9940a7707ada0fd02fde90",
        "records_w1.csv": "e95a91e16c0cfd293f7a4a709b8590ee2b44579faa2bcc05afad0f3b46caf3fe",
        "summary_w1.json counts": "f14d580e6b37bd6d4fe94126dffc93a50232fb2fd1eed8743ddb116421d634a4",
        "records_w2.csv": "e95a91e16c0cfd293f7a4a709b8590ee2b44579faa2bcc05afad0f3b46caf3fe",
        "summary_w2.json counts": "f14d580e6b37bd6d4fe94126dffc93a50232fb2fd1eed8743ddb116421d634a4",
        "years.csv": "fee3a0c16a418e871be084e9b2abf94383be3319bb2fa1881f387bfc2be55ff3",
        "eval/cell_classification.csv": "1c68c090bf93a3f48e0f9136c0b1e494e1b3f742a54d332b1cc3c5a614d5a232",
        "eval/detection_metrics.csv": "b8125e4f498091348f5c0cde13d4973c7940a357895560a1213ea4686034d62c",
        "eval/skew_angles.csv": "abb745e17cb208b97f8cd56b77c1741790866e99fa38ec657f1af1689b555b44",
        "eval/text_metrics.csv": "4000792c139822654d9518de1fc90b164c68af1d93145e49c5414086de8f256c",
        "eval/year_metrics.csv": "b5d871c0a177584759c732511860bf0545739f15e0e4ba55dabe8652889393d0",
    },
    "noisy-long": {
        "gold_records.jsonl": "289771c6ad461f752a20776665513d442e77eadc6a1a7d41bb99a22a305cbec3",
        "gold_years.csv": "84a789806f7a1e122df6981f8759c82fa443004347ef973f825122cae611d277",
        "observed/": "534083e5bfc81aed32ee7dd39a54c73f944ceb7813daa0711daf89d1e4a99ea2",
        "gold/": "3683a63193d93269ed89586260c593c31df13fe219daf23655ec25301633e42a",
        "records_w1.csv": "9e3d7aadc6147e4b3c0236bceb7fdaefccfdb9a0d847f179c166eb2a5060c03d",
        "summary_w1.json counts": "e04b66caa75dcd1559e9d0ad06e2a026ca4c32579b76b82f09c1f9999b64c960",
        "records_w2.csv": "9e3d7aadc6147e4b3c0236bceb7fdaefccfdb9a0d847f179c166eb2a5060c03d",
        "summary_w2.json counts": "e04b66caa75dcd1559e9d0ad06e2a026ca4c32579b76b82f09c1f9999b64c960",
        "years.csv": "5a91b10bd060b42f00f97c9a1061e5b23e4a68f069ba5feba59a4ea24ff84270",
        "eval/cell_classification.csv": "6a3488ed9b2f9d7830a8d6e729a62c2e6952c93ea9f8e2423589fa1e202ab123",
        "eval/detection_metrics.csv": "e032247ef5eedec607b58d202a154e83836fc0c2d3f71e329df879482e8a96ad",
        "eval/skew_angles.csv": "90e303e7d102bd143fa09e2719010535983c1a84879cdeeb1c13decbfa3b3dd3",
        "eval/text_metrics.csv": "7d659bc581e39164b9bd8917708df51ba07259544698e44cf350c9ecaf5fb040",
        "eval/year_metrics.csv": "ce3efc19e8b80f7898bc9fafe6feefcf93c1a79c367dcf17485072f0171196c3",
    },
}

# ROADMAP's Baseline: SHA-256 of the records (CSV), years.csv and the eval
# CSVs by name, concatenated in that order.
COMBINED_PREFIXES = {
    "clean": "d8699740ac461556",
    "noisy": "372332644c5a9734",
    "noisy-long": "5c260c42a9910c7b",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _directory_sha256(directory: Path) -> str:
    """One hash over the name and content hash of each file, in name order."""
    lines = (f"{path.name} {_sha256(path.read_bytes())}\n" for path in sorted(directory.iterdir()))
    return _sha256("".join(lines).encode())


@pytest.fixture(scope="module", params=sorted(PINS))
def run(request, tmp_path_factory):
    """Build one workload's corpus, run every command on it, hash it all."""
    name = request.param
    out = tmp_path_factory.mktemp(name)
    corpus = corpora.build_corpus(corpora.WORKLOADS[name], 0, out / "corpus")
    paths = corpus.paths
    hashes = {
        "gold_records.jsonl": _sha256(Path(paths["records"]).read_bytes()),
        "gold_years.csv": _sha256(Path(paths["years"]).read_bytes()),
        "observed/": _directory_sha256(Path(paths["observed"])),
        "gold/": _directory_sha256(Path(paths["gold"])),
    }
    for workers in (1, 2):
        records = out / f"records_w{workers}.csv"
        assert cli.cmd_extract(paths["observed"], str(records), corpus.options, workers=workers) == cli.EXIT_OK
        hashes[records.name] = _sha256(records.read_bytes())
        summary = json.loads(Path(f"{records}.summary.json").read_text(encoding="utf-8"))
        hashes[f"summary_w{workers}.json counts"] = _sha256(json.dumps(summary["counts"]).encode())
    years = out / "years.csv"
    assert cli.cmd_years(paths["observed"], str(years), corpus.options.chrono) == cli.EXIT_OK
    hashes[years.name] = _sha256(years.read_bytes())
    assert cli.cmd_eval(paths["observed"], paths["gold"], str(out / "eval")) == cli.EXIT_OK
    reports = sorted((out / "eval").glob("*.csv"))
    for path in reports:
        hashes[f"eval/{path.name}"] = _sha256(path.read_bytes())
    combined = b"".join(path.read_bytes() for path in [out / "records_w1.csv", years, *reports])
    return name, hashes, _sha256(combined)


def test_every_corpus_file_and_output_matches_its_pin(run):
    name, hashes, _ = run
    changed = sorted(key for key in PINS[name].keys() | hashes.keys() if PINS[name].get(key) != hashes.get(key))
    assert not changed, f"{name}: changed {changed}; got {hashes}"


def test_combined_outputs_match_the_roadmap_baseline(run):
    name, _, combined = run
    assert combined.startswith(COMBINED_PREFIXES[name])
