"""Fixed points: the trace digest and the journal bytes of both demo
loops, seeds 0-9.

The values were recorded from the demo manifests with conformance
checking on. A change to storage, shadows or services that alters what
a run traces or journals shows up here; a change that means to alter
them updates this table and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from twinarch.configs import load_manifest
from twinarch.orchestrator import run_loop

# (loop, seed) -> (trace digest, sha256 of journal.jsonl)
PINNED = {
    ("monitoring", 0): ("b59f7a0e669c46c8e2d37fce629d4403edb8120ff90561c59bf30d07b095597f",
        "eeb37b8a0bed069c3fd04d0cdb106d1e7f07358e9b6b82d0f6c24759682d6d7f"),
    ("monitoring", 1): ("93220cb88ec56701aa4f0071b12c85d5f9f68f0e25b9ede06e923f2d8c077b67",
        "e717b58ea026203c0bd730b732ce62e8371c703a382e2ac2351fb68e7ea268bb"),
    ("monitoring", 2): ("8dd40ec0a0e9c1c88c4860b21a8d130615e59da15fa4d45a3e087c65e85398b6",
        "ae8a4dcaef076e646dabde51566d928ad3bd1c1e3ed444c11d1335b68f3b603e"),
    ("monitoring", 3): ("18e5d897bec097f08168e011f80870cc7d3ca63fe7dc7d06db60af032fbf44d8",
        "57c4a0aed8b77ed5329379cdc3021799ea7837b214806ce5ef469ab997f2575b"),
    ("monitoring", 4): ("a98fee3d8583e1c5c347f26199057885d7a673788ba7e25e73364a85d59a2620",
        "8ad96a373fccec28a0e5317a0b6aa72801ec8619baa5c208b2d1f38e55365324"),
    ("monitoring", 5): ("ca58ae7caad199509b3b9d3bbe841e55e212a4c2391f999890998da9e797b48d",
        "0f60f2c144d48567dd4c41186abaa3bcb73bdc9e75b4c6819e692407b0356649"),
    ("monitoring", 6): ("5dd1669016185071b3afacf557d3fa4e2767484d2ed4ac7805f59aeb53c444a5",
        "2d32fce74a495a465cf2f0da41a6b954b4d3ead81b938c3d9b3f6b3284b08dd2"),
    ("monitoring", 7): ("3e95d50020d78e69d0c0f27e17f740a385f3a981f182e5edf8a71ad50395db51",
        "3877f4df6fb847fc1dd3cef5877b619ba23f93752b3d4b63bcd1d5ae4e85bba7"),
    ("monitoring", 8): ("bea39b4274290af26e62a6e370d6dd61a1520a649d5700292c64b0cf53edafb5",
        "d71e88170bf31fa4ba3894e35e13516e5ed06d2d9418bb857f7c2a478bb0660b"),
    ("monitoring", 9): ("d15a962fe7c8df50238579296341af5dfd84ee5a270d826a70939dd97af54a19",
        "875de73d2e8a8b67bc196b4d11bed97a279137537ac1e0a9310f502604c16d07"),
    ("prediction", 0): ("d8986d513ab689f930a6e78c9a36abe27a3720287d035557a11539e30473dfce",
        "a5d32aa132a5847b23a6d92abf1f2e5c3a3e7384561531c95b92e9c60d2d5e7a"),
    ("prediction", 1): ("91939c748727ed11898f624d706c6eca7a091fc25035b0ce59e22ed23df62936",
        "6b73f00033a9e9d9b3afbeeb85da6f412cf18ee39f2d9e6f38a9f811e7b14a8f"),
    ("prediction", 2): ("1cf03f0126156dde8e2913bd04ab21cb1d60c8ad379b991b6a244ed8d7ed4c83",
        "7f8fc036acd1b156974096d618fc36fe359e2ae849bc86b2a4c4bec67e6aedef"),
    ("prediction", 3): ("46fec077f7a9069012cf503707fbf503c12041af9d57cc1add791427524e32e6",
        "c1853fa2e748bf4a66e7e9780899ac54eeacf83760703e73a861d9e7e2462edb"),
    ("prediction", 4): ("1a73aad445aa10759cd4bde5e2aeb503aabd81ff7c1d13da9f5619ae243b921c",
        "579c1c06e38aaa96447e2b635a8b72dff827133708e944e997a06e924167f152"),
    ("prediction", 5): ("2578fef593d7f58440e027cd3380f9f273f9546f049027533b8b579399a2565c",
        "0b5870e6735f45c47516dc66383c4a644bf061bbad007ccf0fc2f0bc7a150c96"),
    ("prediction", 6): ("4a36f1d60a490265174ccb981eea87ad4357e65289ca9c51a98743291077cfd6",
        "2326c2145bcc36d8c3142b644f141a08b6bda7e4db85ec04b52db1bd284dafe6"),
    ("prediction", 7): ("c39b5a94d5f32bea44ba0d797ea7412f2dd7f1890bad03dad83805f8811709b1",
        "5708fbcebff0fd9fc95a2421d54a6cffb0b06b8ba9b9caa7471746bb92735346"),
    ("prediction", 8): ("6eadb63a5a37721110cc5d26010402d334ec0262eecd0a52ac6642c4af9d9db3",
        "5eb2b03243e4b5bfe059fb80ebbbcafce1381201d3aa61fb9800a454c2ca5842"),
    ("prediction", 9): ("d15a8941b8a497a434e2ceab150f155a5b1e8b5e313660519158b451c82876f9",
        "c4dabfd71158c0798aa326a906c40f7d62966d64f3c3b3717ba47dfb56f773fb"),
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
