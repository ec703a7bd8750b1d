"""Every CLI artifact on the fixed inputs of ``tests/artifacts.py`` is
byte-identical to the digest pinned in ``tests/artifacts.json``."""

import json

import artifacts


def test_cli_artifacts_match_the_manifest(tmp_path):
    pinned = json.loads(artifacts.MANIFEST.read_text(encoding="utf-8"))
    got = artifacts.digests(tmp_path)
    pairs = sorted({(name, a) for side in (pinned["digests"], got) for name, arts in side.items()
                    for a in arts})
    differ = [f"{name}/{a}" for name, a in pairs
              if pinned["digests"].get(name, {}).get(a) != got.get(name, {}).get(a)]
    assert not differ, (f"artifacts differ from tests/artifacts.json: {', '.join(differ)}; "
                        f"pinned on {pinned['build']}, run on {artifacts.build()}")
