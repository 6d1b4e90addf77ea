"""Byte-identity pins for the file formats and the --json output.

Each constant is the SHA-256 of bytes that a format or schema promise
covers: save_model's manifest and blob (and their load -> save round
trip), embed's marked model and receipt, two attack outputs, and the
--json stdout of the CLI commands.  The constants were computed once; a
changed hash means a changed file format or output schema, never a
reason to update the constant.

Left out on purpose: trained weights, attack_noise and inspect --scores.
Their floats go through BLAS and SIMD reductions, so their bytes may
differ between hosts.
"""

import hashlib

import pytest

from nnwm import pipeline
from nnwm.cli import main
from nnwm.fixtures import random_conv_net, vgg16_style, vgg_tiny
from nnwm.model_store import load_model, save_model
from nnwm.wm_codec import EmbedParams, WatermarkPayload

BITS24 = "110100101011110000101001"  # 8 segments of 3 bits: half of vgg16_style's convs

HOSTS = {
    "vgg_tiny": lambda: vgg_tiny(0),
    "vgg16_style": lambda: vgg16_style(0),
    "random_conv_net_3": lambda: random_conv_net(3),
}

# name -> (manifest, blob)
SAVED = {
    "random_conv_net_3": ("b5332ea896fbeb668082dff259287ce7f36320dec1ef219da9fabc50612f8ccc",
        "cc3548f240f2dbabef7c3e5b9853d832af56b22a87061ed6844a479e0a74baf1"),
    "vgg16_style": ("d1a9e7775ff65239a6823d48f2dfee2da43f11bf7922b2a7370dddb6b5787a29",
        "9f92f6077d2510af9142020a13993d192958bc84367b5b5791ecb6f75346ff28"),
    "vgg_tiny": ("e3095d31dbc6d65be4e290e5eec418f434be62e8bd3313507d5da386687ae6b0",
        "748f14d255cf164fa5e31aa0b05194f29fea96f479c170394e9999802806ab40"),
}

# (criterion, decoy) -> (marked manifest, marked blob, receipt JSON)
EMBEDDED = {
    ("bn", False): ("224e7ae3e738c28df796c2f197605b3599d6b05c28e39d7ce931a7a4dc4f7fb5",
        "59ae13e052ac6517cf966fb0644cc5194be63ad3c6c7ad45b7fddbd037eca9b8",
        "5fdd96fb2f107da53d30c95d1117ec6e7e4b0ba0beb74cb549890a2ad1c8f871"),
    ("bn", True): ("96b048f2badb12b0f3a4aaa3b4203822a5c59a87f3552a3a343fec13309031ad",
        "2b0ff48e6247f1f0e0ce205b95c6477e864affca35790225a8d53966ec028bc6",
        "5fdd96fb2f107da53d30c95d1117ec6e7e4b0ba0beb74cb549890a2ad1c8f871"),
    ("l1", False): ("224e7ae3e738c28df796c2f197605b3599d6b05c28e39d7ce931a7a4dc4f7fb5",
        "0b2f67e2269b24be89edfbc53096188b6c06d03fe415fbf6c05f9e74b59c3c85",
        "db00f5d8256e5266da6d9efbc1cc8f6851cff6b23118958f969cb95c3bb11610"),
    ("l1", True): ("96b048f2badb12b0f3a4aaa3b4203822a5c59a87f3552a3a343fec13309031ad",
        "22057bd1922d5d74498bce7df0f014f01840aed0b57b9ab1d6796917e1cd238d",
        "db00f5d8256e5266da6d9efbc1cc8f6851cff6b23118958f969cb95c3bb11610"),
}

# attack -> (manifest, blob), both attacks on vgg16_style(0)
ATTACKED = {
    "structural": ("076d842038cba7f9f239767bd00c8de2467a8a0f2d51a8b0781762798cbfb1ce",
        "7513afb5851ad231ed09e9aba9cd142b3e2334733d22fa10bce57ce93c5d4e66"),
    "zero": ("d1a9e7775ff65239a6823d48f2dfee2da43f11bf7922b2a7370dddb6b5787a29",
        "5f33aa0385f2c18551faf7d4201d1134cd71323ebe79353a2224646f40f3a3da"),
}

# CLI run -> (exit code, --json stdout)
CLI = {
    "embed_decoy": (0, "9de0809ad22c9e5e5163799cda21127dc1504966afe98ae296b2e8c9c673bc4c"),
    "extract_receipt": (0, "64598ea860547fcb391aa635157a5eb06f244243f67caf86d5e7999b90e12f05"),
    "extract_receipt_wrong_key": (0, "7ae7b9f51cdca85cc1e7ebfff2297b0c01ca56686b456e29739fdbab7f3df9e2"),
    "extract_original": (0, "64598ea860547fcb391aa635157a5eb06f244243f67caf86d5e7999b90e12f05"),
    "verify_receipt": (0, "40e36f526542f0dbd26efcf3287ef9083a96228bbdc86a1d101b9230f86c74fd"),
    "inspect_marked": (0, "3bf5ec313185c4fa8a2ee39ceca7051b2df0a4eb6840cb9819c1f225e904dc23"),
    "attack_zero_expect": (0, "298786c800af6f14b8ac385ec172cd13ec85ca2f124eb78458f8f30a5b5b3508"),
    "attack_structural_expect": (1, "565ca9a080f3cba9273d5a9b360554593e2333463f6bfa54ef0fc240a1784f90"),
    "inspect_repruned": (0, "44eb25b8a6450ea9d57b2e1645afd6879887a37064572c7bc7648dbeec08ae83"),
}

CLI_RUNS = [
    ("embed_decoy", ["embed", "--arch", "host.json", "--weights", "host.bin",
                     "--payload", BITS24, "--key", "owner", "--l", "3", "--decoy",
                     "--out-prefix", "marked", "--receipt", "r.json"]),
    ("extract_receipt", ["extract", "--receipt", "r.json", "--suspect", "marked.json"]),
    ("extract_receipt_wrong_key", ["extract", "--receipt", "r.json",
                                   "--suspect", "marked.json", "--key", "intruder"]),
    ("extract_original", ["extract", "--original", "host.json", "--suspect", "marked.json",
                          "--key", "owner", "--n", "24", "--l", "3"]),
    ("verify_receipt", ["verify", "--receipt", "r.json", "--suspect", "marked.json",
                        "--expect", BITS24]),
    ("inspect_marked", ["inspect", "--original", "host.json", "--suspect", "marked.json",
                        "--l", "3"]),
    ("attack_zero_expect", ["attack", "--type", "zero", "--fraction", "0.3",
                            "--arch", "marked.json", "--weights", "marked.bin",
                            "--out-prefix", "zeroed", "--receipt", "r.json",
                            "--expect", BITS24]),
    ("attack_structural_expect", ["attack", "--type", "structural", "--extra-rate", "0.1",
                                  "--seed", "7", "--arch", "marked.json",
                                  "--weights", "marked.bin", "--out-prefix", "repruned",
                                  "--original", "host.json", "--key", "owner",
                                  "--n", "24", "--l", "3", "--expect", BITS24]),
    ("inspect_repruned", ["inspect", "--original", "host.json", "--suspect", "repruned.json",
                          "--l", "3"]),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def saved_bytes(model, directory, stem) -> tuple[bytes, bytes]:
    arch, blob = directory / f"{stem}.json", directory / f"{stem}.bin"
    save_model(model, arch, blob)
    return arch.read_bytes(), blob.read_bytes()


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_save_and_round_trip_bytes(name, tmp_path):
    arch, blob = saved_bytes(HOSTS[name](), tmp_path, "a")
    assert (sha(arch), sha(blob)) == SAVED[name]
    reloaded = load_model(tmp_path / "a.json", tmp_path / "a.bin")
    assert saved_bytes(reloaded, tmp_path, "b") == (arch, blob)


@pytest.mark.parametrize("criterion", ["l1", "bn"])
@pytest.mark.parametrize("decoy", [False, True])
def test_embed_bytes(criterion, decoy, tmp_path):
    params = EmbedParams(segment_length=3, key=b"owner")
    marked, receipt = pipeline.embed(vgg16_style(0), WatermarkPayload(BITS24, 3), params,
                                     criterion=criterion, decoy=decoy)
    arch, blob = saved_bytes(marked, tmp_path, "m")
    got = (sha(arch), sha(blob), sha(receipt.to_json().encode()))
    assert got == EMBEDDED[(criterion, decoy)]


def test_attack_bytes(tmp_path):
    host = vgg16_style(0)
    got = {
        "zero": saved_bytes(pipeline.attack_zero_weights(host, 0.3), tmp_path, "z"),
        "structural": saved_bytes(pipeline.attack_structural(host, 0.05, seed=7), tmp_path, "s"),
    }
    assert {k: (sha(a), sha(b)) for k, (a, b) in got.items()} == ATTACKED


def test_cli_json_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths only, so no temp path reaches stdout
    save_model(vgg16_style(0), "host.json", "host.bin")
    got = {}
    for name, argv in CLI_RUNS:
        rc = main(argv + ["--json"])
        got[name] = (rc, sha(capsys.readouterr().out.encode()))
    assert got == CLI
