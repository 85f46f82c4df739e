"""Fixed points: the trace digest and the journal bytes of both demo
loops, seeds 0-9.

The values were recorded from the demo manifests with conformance
checking on. A change to storage, shadows or services that alters what
a run traces or journals shows up here; a change that means to alter
them updates this table and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from twinarch.configs import load_manifest
from twinarch.orchestrator import run_loop

# seed-0 demo journals of the runtime whose state read also committed
WRITE_ON_READ = Path(__file__).parent / "data" / "write_on_read"

# (loop, seed) -> (trace digest, sha256 of journal.jsonl)
PINNED = {
    ("monitoring", 0): ("b59f7a0e669c46c8e2d37fce629d4403edb8120ff90561c59bf30d07b095597f",
        "e66380fed894902beec871e09cfd8ee28101d897b5971eaacc88389ea4043ea6"),
    ("monitoring", 1): ("93220cb88ec56701aa4f0071b12c85d5f9f68f0e25b9ede06e923f2d8c077b67",
        "a940c6ae721043c0d0ef7565ba9bc9d7e7a3076728ee6999d1756f38b21cb5c3"),
    ("monitoring", 2): ("8dd40ec0a0e9c1c88c4860b21a8d130615e59da15fa4d45a3e087c65e85398b6",
        "fb82ad3cc58e4556ad30d16823081ac4c8743ca817bd09ad5d66bdf143925374"),
    ("monitoring", 3): ("18e5d897bec097f08168e011f80870cc7d3ca63fe7dc7d06db60af032fbf44d8",
        "b36a6ef5ce490a852b11ddbe746d4243869a2bcf15d9333a4c9082846d197d37"),
    ("monitoring", 4): ("a98fee3d8583e1c5c347f26199057885d7a673788ba7e25e73364a85d59a2620",
        "a9b01f7de25bfe39b27450d51b0f7da0db507aa8af1590bc66ffd4e96c59d8af"),
    ("monitoring", 5): ("ca58ae7caad199509b3b9d3bbe841e55e212a4c2391f999890998da9e797b48d",
        "0cdf85fee66b02ab680e98979d7f61528f317f0a3d84bab7c3d1abc278262206"),
    ("monitoring", 6): ("5dd1669016185071b3afacf557d3fa4e2767484d2ed4ac7805f59aeb53c444a5",
        "0d98208ebfae2c98a3e625f011cc7a163218ebe53648d13aa1f9dd745950d9bd"),
    ("monitoring", 7): ("3e95d50020d78e69d0c0f27e17f740a385f3a981f182e5edf8a71ad50395db51",
        "2239be406c0cd24d0f083d6a359fb42079ede66e63a5f84c4d8bc0ee71f8e21f"),
    ("monitoring", 8): ("bea39b4274290af26e62a6e370d6dd61a1520a649d5700292c64b0cf53edafb5",
        "9ac7f2316a2bef866a0b57096aa0468b4f7933d87d1229313077a2d18200b5af"),
    ("monitoring", 9): ("d15a962fe7c8df50238579296341af5dfd84ee5a270d826a70939dd97af54a19",
        "c076de9e1f7eb14c7bd4605c566f1a5526acf939c72eae7b6755e2000f290bf2"),
    ("prediction", 0): ("d8986d513ab689f930a6e78c9a36abe27a3720287d035557a11539e30473dfce",
        "4c45543c81ee26443164472bacc8b0e6df47a15205e276664a36755de5ea36ed"),
    ("prediction", 1): ("91939c748727ed11898f624d706c6eca7a091fc25035b0ce59e22ed23df62936",
        "67f47206d15a6b0d62bccef326cbc96b21794aaa00063071550ff69477a5b4b0"),
    ("prediction", 2): ("1cf03f0126156dde8e2913bd04ab21cb1d60c8ad379b991b6a244ed8d7ed4c83",
        "0b92dab605afda953242acd5df7942522987627f2317bcdd2782a93db2bdbe78"),
    ("prediction", 3): ("46fec077f7a9069012cf503707fbf503c12041af9d57cc1add791427524e32e6",
        "7fbb7956ff11220e1d3ca99fd75d63ad652895da099e096e8735c15941bb079b"),
    ("prediction", 4): ("1a73aad445aa10759cd4bde5e2aeb503aabd81ff7c1d13da9f5619ae243b921c",
        "70a811e357bca581ad58d74f6a535bda21ca1c81163b532f2f983803a09bb1d3"),
    ("prediction", 5): ("2578fef593d7f58440e027cd3380f9f273f9546f049027533b8b579399a2565c",
        "dcbfae2027499c3e1ac347ce767febc93acc2c6ffcabd08bc1d41da5383e6ff7"),
    ("prediction", 6): ("4a36f1d60a490265174ccb981eea87ad4357e65289ca9c51a98743291077cfd6",
        "7e37adbb25c4dbb2aa7e4acbb0d304c71416215d224c6803d65838dcf1e91207"),
    ("prediction", 7): ("c39b5a94d5f32bea44ba0d797ea7412f2dd7f1890bad03dad83805f8811709b1",
        "fa5942078cb844cd80136c2347fd777a981cc8a51292adf7ea0928290127b09b"),
    ("prediction", 8): ("6eadb63a5a37721110cc5d26010402d334ec0262eecd0a52ac6642c4af9d9db3",
        "bfcb1460379394af6fd7481ad22054614e051879d9a1aa02511730e76ff070d9"),
    ("prediction", 9): ("d15a8941b8a497a434e2ceab150f155a5b1e8b5e313660519158b451c82876f9",
        "893e3239d730471d30e4e43e965e25f455acd8fe958e8d1502ae9ccda6de9df8"),
}


@pytest.mark.parametrize("loop,seed", sorted(PINNED))
def test_demo_run_matches_pinned_digests(loop, seed, repo_root, tmp_path):
    manifest = load_manifest(
        repo_root / "configs" / "demo" / loop / "manifest.json", loop=loop)
    journal = tmp_path / "journal.jsonl"
    output, manager = run_loop(manifest, loop, seed=seed,
                               journal_path=journal, check=True)
    manager.shutdown()
    assert output.report.ok, output.report.describe()
    digest = output.tracer.digest()
    journal_sha = hashlib.sha256(journal.read_bytes()).hexdigest()
    assert (digest, journal_sha) == PINNED[(loop, seed)]


def _without_state_reads(text: str) -> str:
    """A journal of the runtime whose state read also committed, as
    the runtime journals it now. Its States line at revision 1 was a
    read and goes; one at revision 2 was the storeState commit of the
    same key and becomes revision 1."""
    kept = []
    for line in text.splitlines(keepends=True):
        doc = json.loads(line)
        if doc["key"]["namespace"] == "States":
            if doc["revision"] == 1:
                continue
            assert line.endswith(', "revision": 2}\n'), line
            line = line[:-len('2}\n')] + '1}\n'
        kept.append(line)
    return "".join(kept)


@pytest.mark.parametrize("loop", ["monitoring", "prediction"])
def test_a_state_read_journals_nothing(loop, repo_root, tmp_path):
    manifest = load_manifest(
        repo_root / "configs" / "demo" / loop / "manifest.json", loop=loop)
    journal = tmp_path / "journal.jsonl"
    output, manager = run_loop(manifest, loop, seed=0, journal_path=journal)
    manager.shutdown()
    before = (WRITE_ON_READ / f"{loop}.jsonl").read_bytes().decode("utf-8")
    assert journal.read_bytes() == _without_state_reads(before).encode("utf-8")
    states = [doc for doc in map(json.loads, journal.read_bytes().splitlines())
              if doc["key"]["namespace"] == "States"]
    if loop == "monitoring":
        # one storeState commit per tick, each of a new key
        assert len(states) == output.ticks_run == 10
        assert {doc["revision"] for doc in states} == {1}
        assert len({doc["key"]["observed_at"] for doc in states}) == 10
    else:
        assert states == []     # the search seed is a read
