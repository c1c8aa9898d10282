"""The stdout bytes of fixed CLI runs, pinned in one table.

Each row is (name, argv, exit code, sha256 of stdout).  The rows run in
order in one directory, and each saves its stdout under its name, so a row
reads an earlier row's output as its input.  A new pin is one more row.
"""

import hashlib
import json
from fractions import Fraction

from fairsplit.cli import main

PINS = [
    ("phi_727", "phi-check --q 7 --k 2 --t 7", 0,
     "90c12411b06da837423dfa01e98435aa2ff3a5e4f0bce2866d303cc94a34ca20"),
    ("phi_727_order", "phi-check --q 7 --k 2 --t 7 --order 3,1,4,0,6,2,5", 0,
     "dd1eb268ca245e9082d03e9ab5719f11ca1c542d67239d4ac03352755712973d"),
    ("phi_432", "phi-check --q 4 --k 3 --t 2", 0,
     "e730fdc14049a8d2e251600496e9e8fbfcccf3236ebfd6373b23a6811ff9670a"),
    ("phi_282", "phi-check --q 2 --k 8 --t 2", 0,
     "3819844387ca4296604f93858c4f51511d5e31540ba8878451ae45ded81a41be"),
    ("ks_q2", "kneser-split --n 12 --blocks 3,4,5 --q 2", 0,
     "2c429671edc5727bd42bcb66c105fe5d16c1b49f33f10ffe3d39ca70ea0c4087"),
    ("ks_q3", "kneser-split --n 12 --blocks 3,4,5 --q 3", 0,
     "16a582c80ceb08a92febc9a3c188357ce9057a9424886a047159af7c34367a46"),
    # the README's quick start
    ("c6.json", "generate --family cycle --n 6 --blocks 3,3", 0,
     "3c820398c73c4d1e17f82a4cbdcbab8dd454948b447c3c4ef8eac5c5ffa83f65"),
    ("readme_solve", "solve --input c6.json --q 2 --flavor almost --balanced", 0,
     "5180472242a9b6f0139fd62c570b42322ac6fdf8a60a8ffcf3182734f7c03707"),
    ("readme_verify", "verify --input c6.json --splitting sets.json --flavor "
     "almost --balanced", 0,
     "5d7fdfb5f059c9463120e692a9c0c09852ccd7e736ee76a19101299ad5cae72d"),
    # the exact LP on integer and on rational points
    ("moment.json", "geometry --op moment --params 1,2,3,4,5,6,7 --dim 2", 0,
     "f1ffdd265cb5ceb2d74f3ff93ee82620acfc86c8b96e351df61083e13857ad0f"),
    ("lp_tverberg", "geometry --op tverberg --points moment.json --q 3 "
     "--target-dim 2", 0,
     "0db1ae827b6b46490a05f95e948cf5722e9030ff9854affa7ccb33d343f80e91"),
    ("lp_tverberg_rational", "geometry --op tverberg --points rational.json "
     "--q 3 --target-dim 2", 0,
     "af163739b4a92ac6e1f9332f60bb5e62ffc997482eb38c01ca4561daf39d33ca"),
    ("p6.json", "generate --family path --n 6 --blocks 6", 0,
     "379636c663fcbbc9f67684e425ad3c232a61dede1ed53fbeb0042600f2b0d666"),
    ("lp_solve", "solve --input p6.json --q 2 --points rational.json", 0,
     "db06399af7f5ead44aa6f3fd98d56777816c477c531b5ae1256db18032577033"),
    # check-conditions, given a path and searching for one
    ("p9.json", "generate --family path --n 9 --blocks 9", 0,
     "da40b5368f538df0c76f0ef9d9b57002bee10851dc1aac4e68c4a163f2bef73a"),
    ("cc_path9", "check-conditions --input p9.json --q 2", 0,
     "3c95d04eb37bdfd688b99ef1dd0965f3a9effc8ff8197aacdbe6491031943491"),
    ("puc.json", "generate --family path_union_cliques --n 3 --q 3 --blocks 7", 0,
     "1edbbe026f5a9434e5f5435dabd32d6411e4c4fe946b09fa315fb0ca71c52a3b"),
    ("cc_puc", "check-conditions --input puc.json --q 3", 0,
     "897667e12a219c0e27833d0a77f181ab9c040918aa127be21e8a31ead0b96bb1"),
    ("c13.json", "generate --family cycle --n 13 --blocks 6,7", 0,
     "e940a239656f1a8bab3380bc1174e0d06d484d6292072bc7fb65620a1af938e6"),
    ("cc_c13", "check-conditions --input c13.json --q 4 "
     "--path 1,2,3,4,5,6,7,8,9,10,11,12,13", 0,
     "433b820927665c7b39210f8ff71d55e50e63f06d776a001728610cf5cc7d9018"),
    ("cc_c13_search", "check-conditions --input c13.json --q 4", 0,
     "433b820927665c7b39210f8ff71d55e50e63f06d776a001728610cf5cc7d9018"),
    ("pp12.json", "generate --family power_path --n 12 --r 2 --blocks 12", 0,
     "2e63da22fb66297c5d521032ba1d37ff478d83cf821285e5d510b1949dab12a4"),
    ("cc_pp12", "check-conditions --input pp12.json --q 3", 1,
     "6f204255441771acce992a20a6ca7349a7cab7eb9cff192241c94c50e0b86e57"),
    # compose, kneser-chi and the weak solves
    ("compose_t2", "compose --n 15 --blocks 7,8 --t 2", 0,
     "84bef8130d08d884879c1784d861ed43e02172271dac32f709df7ae65e168cd9"),
    ("compose_q23", "compose --n 20 --blocks 9,11 --q1 2 --q2 3", 0,
     "e51ec3c5b779e45bcfeaa17ca69a6db7585cbd141120a4c2bdcea5e3d7b6881f"),
    ("chi_path", "kneser-chi --n 10 --k 2 --q 3 --stability path", 0,
     "f6d0425d8ffe2c61e1d4d773b1ff7b67f00b445693d3461a5caf616d50f9f27f"),
    ("chi_cycle", "kneser-chi --n 9 --k 3 --q 2 --stability cycle", 0,
     "b99c6f90277cb6971ab3427809c3800e5d4961cca5335189e78b258f2e8feae5"),
    ("chi_k0_none", "kneser-chi --n 4 --k 0 --q 2 --stability none", 0,
     "8ade45cdcfe3bb79c4a7705ccc5c0cd8c5bec5728edb940a8c56a6c4a781e0cf"),
    ("chi_k0_path", "kneser-chi --n 4 --k 0 --q 2 --stability path", 0,
     "8175e408cf15327582d9d758bc59d167af0da7442f628b7b071cb343407bdbc2"),
    ("chi_k0_cycle", "kneser-chi --n 4 --k 0 --q 2 --stability cycle", 0,
     "95900f082f2c897bfac5714d75d351fb65843dd1ff63ea8b85433c02a10df654"),
    ("p7.json", "generate --family path --n 7 --blocks 3,4", 0,
     "e133b0a16f219bb51431be5f8567b1c58460d9f07899d97a09dbce9c4be3d91a"),
    ("weak_p7", "solve --input p7.json --q 2 --weak", 0,
     "05c9a266e3fea114ede40be2a208cdb565ef72f10d812c685e4e1523c268701e"),
    ("c9.json", "generate --family cycle --n 9 --blocks 9", 0,
     "690a1c8969cb06fb5524b4a0039b1e72a914419a61b63a9fb22031d6e5524b4c"),
    ("weak_c9", "solve --input c9.json --q 3 --weak --flavor almost", 0,
     "41ee5b9cfa3ee601fc151dd51b8fee5902e74360f1d7c985c1e96db203bb39fa"),
    ("suite", "suite", 0,
     "8e76f32e865ee6a772cc7cbf96a51e9dd9ba5cef906a328483bc82e90b500c2b"),
]
PINNED_SHA256 = {name: sha for name, _, _, sha in PINS}


def test_every_pinned_run_prints_its_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # inputs no command prints: the README's splitting, and moment points at
    # the rational parameters t = k/3 + 1/(k + 2)
    ts = [Fraction(k, 3) + Fraction(1, k + 2) for k in range(1, 8)]
    points = [[[u.numerator, u.denominator] for u in (t, t * t)] for t in ts]
    (tmp_path / "sets.json").write_text(json.dumps(
        {"schema": "splitting/1", "sets": [[1, 3, 5], [2, 4, 6]]}))
    (tmp_path / "rational.json").write_text(json.dumps(
        {"schema": "points/1", "dim": 2, "points": points}))
    got = {}
    for name, argv, _, _ in PINS:
        code = main(argv.split())
        out = capsys.readouterr().out
        (tmp_path / name).write_text(out)
        got[name] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == {name: (code, sha) for name, _, code, sha in PINS}
