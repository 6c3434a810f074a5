"""Pinned bytes of the BLIF ``repro blif`` emits for the small e2e inputs.

Kernel changes in this repository promise byte-identical output; these
sha256 digests make that promise a tier-1 check instead of a manual
diff.  A deliberate output change updates the digests and says why.

The ``area`` and ``delay`` modes pin the serial in-manager path; the
``portfolio`` and ``cache`` modes pin the governed task runner, whose
bytes differ from the serial ones on some inputs.  The ``cache`` mode
maps twice on one fresh store (all misses, then all hits), and both
runs must emit the pinned bytes.  The ``per-output``, ``random``,
``resub`` and ``column`` modes pin the per-output flows of the same
name, which run the class computation, the don't-care merge and the
encoder without the hyper-function.

The four medium inputs are the only ones whose searches run over
supports wider than the packed kernels take, on the BDD or the
class-function backend; their area and delay bytes are pinned together
with the flow's work counters and the manager's peak live node count
(a slow test: about 20 s).
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.cli import main
from repro.fastpath import bitops
from repro.mapping import hyde_map
from repro.network import read_blif, to_blif

INPUTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e", "inputs",
)

#: (input, mode) -> sha256 of the emitted BLIF.
GOLDEN = {
    ("5xp1", "area"): "8863b01f3afb3ef83ec766bd1adbf8aed5dc7b7f46c2284872345e2355e8f09b",
    ("5xp1", "delay"): "ca219f65e17198d8b3ecc117213356847e0619816a7c1fbabea1ec2ab83dbb46",
    ("9sym", "area"): "e0932a7a1e3bdd27e02af91d2cc08e96bc6ace6f1178bab2fc79d8d3f700de92",
    ("9sym", "delay"): "e0932a7a1e3bdd27e02af91d2cc08e96bc6ace6f1178bab2fc79d8d3f700de92",
    ("alu2", "area"): "99705e67b7db2e88f3aba82b33376df2ad8b1c2887a78fd0c93f49c15e6563bb",
    ("alu2", "delay"): "0f99084e7d779ebd6c3a4297cb379cbbaf3051eceae724a46e9d6d5b936cd220",
    ("b9", "area"): "3168c9d3166dcdd55d7f4980189d70e4ee746afc7f3236918b324539f2e827b4",
    ("b9", "delay"): "fe282a8cf51c6bb58d3c49fc23392929fa6e9d5be68feb20715fbb7686d743bc",
    ("clip", "area"): "66d6b5456f25f52d3db07a33f14e5da35ecfb4dfc159782e435288e343d3c6ec",
    ("clip", "delay"): "66d6b5456f25f52d3db07a33f14e5da35ecfb4dfc159782e435288e343d3c6ec",
    ("f51m", "area"): "604ee0d073f775ce627e40b5108fae0a24d8ecfeae29cab2ce91d13dc0aa0252",
    ("f51m", "delay"): "604ee0d073f775ce627e40b5108fae0a24d8ecfeae29cab2ce91d13dc0aa0252",
    ("misex1", "area"): "460d3194cd0ef45eb57cf7b60b9dcb2988ea848281c58109261f3d87a475d09e",
    ("misex1", "delay"): "460d3194cd0ef45eb57cf7b60b9dcb2988ea848281c58109261f3d87a475d09e",
    ("rd73", "area"): "bd7935ea367d6f78dcf36144229364b13cb443e46d6dd4b6a901e1d1897733ae",
    ("rd73", "delay"): "bd7935ea367d6f78dcf36144229364b13cb443e46d6dd4b6a901e1d1897733ae",
    ("rd84", "area"): "69a2bffc64ced3a8d151172415f24f37ffd3505153689e2a0a0579afbc6d9338",
    ("rd84", "delay"): "69a2bffc64ced3a8d151172415f24f37ffd3505153689e2a0a0579afbc6d9338",
    ("sao2", "area"): "399a3562f946d759b1a2da3f88954a35c91941613b88dbfb6fc989d2f891c942",
    ("sao2", "delay"): "399a3562f946d759b1a2da3f88954a35c91941613b88dbfb6fc989d2f891c942",
    ("vg2", "area"): "0920ec3d621e269d28db8ddf68c329fe17b35309d3d12cc92e4e5987ad858460",
    ("vg2", "delay"): "0920ec3d621e269d28db8ddf68c329fe17b35309d3d12cc92e4e5987ad858460",
    ("z4ml", "area"): "e7dff12d03ed296358f06ddc80caf22b5d00bf23ad6839e1ec0f372e05062979",
    ("z4ml", "delay"): "e7dff12d03ed296358f06ddc80caf22b5d00bf23ad6839e1ec0f372e05062979",
    ("5xp1", "portfolio"): "8863b01f3afb3ef83ec766bd1adbf8aed5dc7b7f46c2284872345e2355e8f09b",
    ("5xp1", "cache"): "8863b01f3afb3ef83ec766bd1adbf8aed5dc7b7f46c2284872345e2355e8f09b",
    ("9sym", "portfolio"): "2e7bd8dbd2f91d925ac724136cf607645bfb002a353f1bd45cacf7e1e202cbbf",
    ("9sym", "cache"): "2e7bd8dbd2f91d925ac724136cf607645bfb002a353f1bd45cacf7e1e202cbbf",
    ("alu2", "portfolio"): "99705e67b7db2e88f3aba82b33376df2ad8b1c2887a78fd0c93f49c15e6563bb",
    ("alu2", "cache"): "99705e67b7db2e88f3aba82b33376df2ad8b1c2887a78fd0c93f49c15e6563bb",
    ("b9", "portfolio"): "820df0758c113d07c658db98a1e7c35e4827ad1b511bf4e9a9d358199df7818c",
    ("b9", "cache"): "3168c9d3166dcdd55d7f4980189d70e4ee746afc7f3236918b324539f2e827b4",
    ("clip", "portfolio"): "b7c1f2be02f1e2243a4c3d80daea3dd0fd0d5a163bff150c50b24c29f2465bf6",
    ("clip", "cache"): "5deee210a3c435881435319e6ade152f847314e4ce65423fa4f828b2be2feaea",
    ("f51m", "portfolio"): "604ee0d073f775ce627e40b5108fae0a24d8ecfeae29cab2ce91d13dc0aa0252",
    ("f51m", "cache"): "604ee0d073f775ce627e40b5108fae0a24d8ecfeae29cab2ce91d13dc0aa0252",
    ("misex1", "portfolio"): "49cf672929094074011d70e1dcb6ab1a82f77323f5a4e13337e34f2d6e56f057",
    ("misex1", "cache"): "460d3194cd0ef45eb57cf7b60b9dcb2988ea848281c58109261f3d87a475d09e",
    ("rd73", "portfolio"): "bd7935ea367d6f78dcf36144229364b13cb443e46d6dd4b6a901e1d1897733ae",
    ("rd73", "cache"): "bd7935ea367d6f78dcf36144229364b13cb443e46d6dd4b6a901e1d1897733ae",
    ("rd84", "portfolio"): "69a2bffc64ced3a8d151172415f24f37ffd3505153689e2a0a0579afbc6d9338",
    ("rd84", "cache"): "69a2bffc64ced3a8d151172415f24f37ffd3505153689e2a0a0579afbc6d9338",
    ("sao2", "portfolio"): "46e715f2c2f809d80b383256eb922e077e0e958902da7e3fc8ccb0a2b4f75192",
    ("sao2", "cache"): "399a3562f946d759b1a2da3f88954a35c91941613b88dbfb6fc989d2f891c942",
    ("vg2", "portfolio"): "39cc188121f6a101daf324919c0aee32d5d834e7a2fc639a1e073f95039d09b8",
    ("vg2", "cache"): "0920ec3d621e269d28db8ddf68c329fe17b35309d3d12cc92e4e5987ad858460",
    ("z4ml", "portfolio"): "e7dff12d03ed296358f06ddc80caf22b5d00bf23ad6839e1ec0f372e05062979",
    ("z4ml", "cache"): "e7dff12d03ed296358f06ddc80caf22b5d00bf23ad6839e1ec0f372e05062979",
    ("5xp1", "per-output"): "ffd2febe5bff3c7a07f78b70642bf156acfae1da4a014fecf7c69088b0c4de00",
    ("5xp1", "random"): "d302a19dfa33b42e3e4cb1f134321605135b5a1e1fd00190a02add64afe556b7",
    ("5xp1", "resub"): "107165b0f25c87b652423549f990091b4ec17ba874f8c021dd9e740017bfd57d",
    ("5xp1", "column"): "8863b01f3afb3ef83ec766bd1adbf8aed5dc7b7f46c2284872345e2355e8f09b",
    ("9sym", "per-output"): "06e41058f5a0c046747a33af5864cb67c51c0af813fddb223a4dc1f7b51ea12b",
    ("9sym", "random"): "b9eb47f516954ace26cfc8e4a156236a9611aca63d6596ababd1a8a4f5d0cb66",
    ("9sym", "resub"): "d19111104177282241ef874540079aff5354721ef8030f3b79122736d0017739",
    ("9sym", "column"): "e0932a7a1e3bdd27e02af91d2cc08e96bc6ace6f1178bab2fc79d8d3f700de92",
    ("alu2", "per-output"): "4d12de9ca919070cfbe1d475a282147a24d6800d64eb1b94d3765e03a851d254",
    ("alu2", "random"): "8590d4ff9be2074bb5b7d1943cfb50269a701b77e480d14720796ec9b5084693",
    ("alu2", "resub"): "3bd5cd07e9aea49439d01e66ed33136c0e6a6ed9827a4614ac5b85ab98ade6c3",
    ("alu2", "column"): "f43afaf81a7ab801d0d5eb6d1ae32563b87e9a10b4f111c9a731d5ebab1be1d6",
    ("b9", "per-output"): "67817373edc339b81d215ea4b0ddc16c61fc1870ee084297de1dcba70800dd35",
    ("b9", "random"): "41803b101b283ca16add65d9054fba690854f5c33a3b33cae7bbf9bf377ac2bb",
    ("b9", "resub"): "41803b101b283ca16add65d9054fba690854f5c33a3b33cae7bbf9bf377ac2bb",
    ("b9", "column"): "3168c9d3166dcdd55d7f4980189d70e4ee746afc7f3236918b324539f2e827b4",
    ("clip", "per-output"): "2421d885664b0ba343721d56023a1690198015433e9bb9847c93d7b7f51137f0",
    ("clip", "random"): "f5e670f2e2b420b986c3e214677d1ce55f95d7ef1b7f6abaac83fdf7faf942f2",
    ("clip", "resub"): "90b5162b434ab736901ce9cd5e9fd21154e22931002ec91156cd69d8e9b0db4d",
    ("clip", "column"): "98b6806803afa68c9665270cb7a46652d07a6f8ed98b0c49ccab0e2a029eed93",
    ("f51m", "per-output"): "0e1e43a12a05dccae4f5acf7699fc51de7ee9f555982384292956240c3f1957c",
    ("f51m", "random"): "9e9c7d6d39064b6294d0aa48becd7dcf7cf2131ed70768ff3be1ad93a4b80aae",
    ("f51m", "resub"): "2e79672e7e7bd3fcc16b277b5bc555a7092b5e36ef444255ee3f5d1c550632ee",
    ("f51m", "column"): "604ee0d073f775ce627e40b5108fae0a24d8ecfeae29cab2ce91d13dc0aa0252",
    ("misex1", "per-output"): "a966091dc6ec586bd95458b8fdb1d1835c9f7feb067e7b1897c6f6cabd303eb4",
    ("misex1", "random"): "ada1e6959351b34e409763db65c962b614384d19c6bbf69c6eded5ae0e6b3c1d",
    ("misex1", "resub"): "e9f54e01cb8b95e7afd6a25966af371eeaa4616b4a8b907a354b65a9d85c1730",
    ("misex1", "column"): "460d3194cd0ef45eb57cf7b60b9dcb2988ea848281c58109261f3d87a475d09e",
    ("rd73", "per-output"): "122ab8df3e7ffff8ae5068cbd46daca92ae1d3c7c4d047b0a553a73591ca65fd",
    ("rd73", "random"): "9172ada6e590085a0464cede61e2f5e3140bc4f8714919c813cb4ef1c87f3e2f",
    ("rd73", "resub"): "d72b73a00e564f81ed35bfa7d1ed71fcf2a2d05f8c195ac99eac4e02431ca8b9",
    ("rd73", "column"): "bd7935ea367d6f78dcf36144229364b13cb443e46d6dd4b6a901e1d1897733ae",
    ("rd84", "per-output"): "4734b4827bc696ec5a80c1d0dfd969c4e43a83ea74c7c293adada07387cb869a",
    ("rd84", "random"): "5cea47e8824cae6ba375d67a709a34d6ee5f678d43aa1ba3d80840d9571d0b79",
    ("rd84", "resub"): "876055ede71a0adb5d3682ac1f26f955b819396a5564af461c4711ed0f4907f9",
    ("rd84", "column"): "69a2bffc64ced3a8d151172415f24f37ffd3505153689e2a0a0579afbc6d9338",
    ("sao2", "per-output"): "d7178e1f76a8b28360358be03c7bbec2d9798fb2c846de32a89360e9797e7615",
    ("sao2", "random"): "c29a093548cc4a2ce25539d65108ece165bc6c13ecb7613d0fb8c9300d61745c",
    ("sao2", "resub"): "06bbaf3684b3fb6fd354305eed6f55e5801c662d8bb7ab503bd62f0625f13938",
    ("sao2", "column"): "399a3562f946d759b1a2da3f88954a35c91941613b88dbfb6fc989d2f891c942",
    ("vg2", "per-output"): "4795bc8dae63db5db7e3dbe57d88f482579e3f5fca0b667d0a68e2765a701ee8",
    ("vg2", "random"): "638349fe98ecd08de66600be02eef1bcb2d2d7222a7322c25fb509b71a901534",
    ("vg2", "resub"): "638349fe98ecd08de66600be02eef1bcb2d2d7222a7322c25fb509b71a901534",
    ("vg2", "column"): "0920ec3d621e269d28db8ddf68c329fe17b35309d3d12cc92e4e5987ad858460",
    ("z4ml", "per-output"): "68143e4a554746a5939babc9189911ba5ef9c4455c78a463970ec43e34845778",
    ("z4ml", "random"): "072902dbe2d988e25bf873fdf610ddf07c8fed7aa9501a9695e533a59b690966",
    ("z4ml", "resub"): "46b6be5067346d06613b64cbd12078b2fd684956b0261c4c6302ea74be50144e",
    ("z4ml", "column"): "0dd7b0d023d213915f9377b9c82226cad9ec034dd7f2f536d0a0c6f9934acd4a",
}


#: Extra ``repro blif`` flags per mode (``cache`` adds its store path).
FLAGS = {
    "area": [],
    "delay": ["--cost", "delay"],
    "portfolio": ["--portfolio"],
    "cache": ["--cache"],
    "per-output": ["--flow", "per-output"],
    "random": ["--flow", "random"],
    "resub": ["--flow", "resub"],
    "column": ["--flow", "column"],
}


@pytest.mark.parametrize("name, mode", sorted(GOLDEN))
def test_emitted_blif_is_pinned(name, mode, tmp_path, capsys):
    target = tmp_path / f"{name}.blif"
    argv = ["blif", os.path.join(INPUTS, f"{name}.blif"), "-o", str(target)]
    argv += FLAGS[mode]
    runs = 1
    if mode == "cache":
        argv.append(str(tmp_path / "store.db"))
        runs = 2  # first run fills the store, the second is served from it
    for run in range(runs):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if mode == "cache":
            assert (" 0 hit(s)" if run == 0 else " 0 miss(es)") in out
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == GOLDEN[name, mode]


#: The work counters pinned with each medium input's bytes.
COUNTERS = (
    "nodes_allocated",
    "cofactor_calls",
    "cofactor_enumerations",
    "fastpath_global_misses",
    "shannon_splits",
)

#: (input, mode) -> (sha256 of the emitted BLIF, *COUNTERS, peak live
#: nodes) of one in-process run that starts with an empty global count
#: memo.
MEDIUM_GOLDEN = {
    ("apex7", "area"): (
        "0b71d67daf6078e769bb14228319af060b02152bc4a6fe605706e92c3b701aa2",
        303_101, 601_784, 974, 13_731, 3, 167_265,
    ),
    ("apex7", "delay"): (
        "cc85bdf1fc54fc75b655c686cd869f517896705e3bad5b83f84b0e50b83f0158",
        304_044, 592_996, 1_118, 14_111, 4, 167_265,
    ),
    ("count", "area"): (
        "4c682da4ab24b85afe325fee296b1c9fa87199388cd742b403be75fc8c70ac73",
        67_225, 187_916, 843, 11_539, 0, 17_478,
    ),
    ("count", "delay"): (
        "89d4a16c1ed6fdbcfb4a844d48943e708fef80987a4f2b12dd2c486e6a509e03",
        73_476, 187_342, 1_073, 13_745, 2, 17_478,
    ),
    ("duke2", "area"): (
        "dd61d97874bd2083ad87f368716d84a3c997dd36a3c53b44f65f61a6c620392d",
        57_431, 100_786, 848, 13_099, 9, 46_243,
    ),
    ("duke2", "delay"): (
        "dd61d97874bd2083ad87f368716d84a3c997dd36a3c53b44f65f61a6c620392d",
        30_748, 61_170, 504, 9_754, 7, 22_031,
    ),
    ("misex2", "area"): (
        "2d8a8b9826ceef9e201eb4a0cb86fbb0289902bede610bc526a6d18479f5eab2",
        47_538, 163_694, 376, 5_652, 1, 37_839,
    ),
    ("misex2", "delay"): (
        "b085abbde06ce0922d4bd74d97b2536557f77e4ec93215f9c7ea2747186eaabb",
        45_815, 160_122, 312, 6_505, 8, 37_097,
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("name, mode", sorted(MEDIUM_GOLDEN))
def test_medium_blif_and_work_are_pinned(name, mode):
    # A fresh process starts with an empty memo; earlier tests filled it.
    bitops.clear_global_memo()
    net = read_blif(os.path.join(INPUTS, f"{name}.blif"))
    cost = {"cost_model": "delay"} if mode == "delay" else {}
    result = hyde_map(net, 5, **cost)
    perf = result.details["perf"]
    digest = hashlib.sha256(to_blif(result.network).encode()).hexdigest()
    pinned = (
        digest,
        *(perf[counter] for counter in COUNTERS),
        perf["engine"]["peak_nodes"],
    )
    assert pinned == MEDIUM_GOLDEN[name, mode]
