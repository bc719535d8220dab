"""Byte-exact stdout of ``decompose --n 3 --d 2`` under every theory,
sha256 pins of the JSON output at kernel sizes, and of the nest listing
and the verify report at n = 6.

The inputs reach shifts 0 to 3, multiplicities 3 and 4, the Lawson level
clamp, Deligne-Beilinson terms kept formal at a negative level, zero terms,
and torsion repeated by multiplicity.  The expected bytes were captured
before the per-theory conventions moved into one table and must not drift.
The kernel-size digests were captured from the schoolbook ``IntPoly``
kernel, before the triangle was evaluated in packed integers.  The nest
and verify digests were captured while every nest's statistics were still
found by walking its members, before they were read off the construction.
"""

import hashlib
import json

import pytest

from fmc.cli import main

DB_SURFACE = "DB_SURFACE"  # replaced by the path of SURFACE_DOC

SURFACE_DOC = {
    "name": "surface",
    "dim": 2,
    "kind": "db",
    "table": [
        {"p": 0, "k": 0, "free_rank": 1},
        {"p": 0, "k": 2, "free_rank": 1, "torsion": [2]},
        {"p": 1, "k": 2, "free_rank": 2},
    ],
    "powers": {
        "2": [{"p": 0, "k": 2, "free_rank": 3, "torsion": [3]}],
        "3": [{"p": 0, "k": 4, "free_rank": 1}],
    },
}

PINNED = [
    (
        ('lawson', '--p', '1', '--k', '4', '--format', 'text'),
        'n=3 d=2 theory=lawson mode=formal p=1 k=4\nm=3 shift=0 mult=1 group=L_1H_4(X^3)\nm=2 shift=1 mult=3 group=L_0H_2(X^2)\nm=1 shift=1 mult=1 group=L_0H_2(X)\nm=1 shift=2 mult=4 group=L_0H_0(X)\nm=1 shift=3 mult=1 group=0\nvalue: L_0H_0(X) + L_0H_0(X) + L_0H_0(X) + L_0H_0(X) + L_0H_2(X) + L_0H_2(X^2) + L_0H_2(X^2) + L_0H_2(X^2) + L_1H_4(X^3)\n',
    ),
    (
        ('lawson', '--p', '1', '--k', '4', '--format', 'json'),
        '{"n":3,"d":2,"theory":"lawson","mode":"formal","p":1,"k":4,"terms":[{"m":3,"shift":0,"mult":1,"group":"L_1H_4(X^3)"},{"m":2,"shift":1,"mult":3,"group":"L_0H_2(X^2)"},{"m":1,"shift":1,"mult":1,"group":"L_0H_2(X)"},{"m":1,"shift":2,"mult":4,"group":"L_0H_0(X)"},{"m":1,"shift":3,"mult":1,"group":"0"}],"value":{"formal":["L_0H_0(X)","L_0H_0(X)","L_0H_0(X)","L_0H_0(X)","L_0H_2(X)","L_0H_2(X^2)","L_0H_2(X^2)","L_0H_2(X^2)","L_1H_4(X^3)"]}}\n',
    ),
    (
        ('chow', '--p', '1', '--format', 'text'),
        'n=3 d=2 theory=chow mode=formal p=1\nm=3 shift=0 mult=1 group=Ch_1(X^3)\nm=2 shift=1 mult=3 group=Ch_0(X^2)\nm=1 shift=1 mult=1 group=Ch_0(X)\nm=1 shift=2 mult=4 group=0\nm=1 shift=3 mult=1 group=0\nvalue: Ch_0(X) + Ch_0(X^2) + Ch_0(X^2) + Ch_0(X^2) + Ch_1(X^3)\n',
    ),
    (
        ('chow', '--p', '1', '--format', 'json'),
        '{"n":3,"d":2,"theory":"chow","mode":"formal","p":1,"terms":[{"m":3,"shift":0,"mult":1,"group":"Ch_1(X^3)"},{"m":2,"shift":1,"mult":3,"group":"Ch_0(X^2)"},{"m":1,"shift":1,"mult":1,"group":"Ch_0(X)"},{"m":1,"shift":2,"mult":4,"group":"0"},{"m":1,"shift":3,"mult":1,"group":"0"}],"value":{"formal":["Ch_0(X)","Ch_0(X^2)","Ch_0(X^2)","Ch_0(X^2)","Ch_1(X^3)"]}}\n',
    ),
    (
        ('db', '--p', '0', '--k', '4', '--format', 'text'),
        'n=3 d=2 theory=db mode=formal p=0 k=4\nm=3 shift=0 mult=1 group=H^4_D(X^3, Z(0))\nm=2 shift=1 mult=3 group=H^2_D(X^2, Z(-1))\nm=1 shift=1 mult=1 group=H^2_D(X, Z(-1))\nm=1 shift=2 mult=4 group=H^0_D(X, Z(-2))\nm=1 shift=3 mult=1 group=0\nvalue: H^0_D(X, Z(-2)) + H^0_D(X, Z(-2)) + H^0_D(X, Z(-2)) + H^0_D(X, Z(-2)) + H^2_D(X, Z(-1)) + H^2_D(X^2, Z(-1)) + H^2_D(X^2, Z(-1)) + H^2_D(X^2, Z(-1)) + H^4_D(X^3, Z(0))\n',
    ),
    (
        ('db', '--p', '0', '--k', '4', '--format', 'json'),
        '{"n":3,"d":2,"theory":"db","mode":"formal","p":0,"k":4,"terms":[{"m":3,"shift":0,"mult":1,"group":"H^4_D(X^3, Z(0))"},{"m":2,"shift":1,"mult":3,"group":"H^2_D(X^2, Z(-1))"},{"m":1,"shift":1,"mult":1,"group":"H^2_D(X, Z(-1))"},{"m":1,"shift":2,"mult":4,"group":"H^0_D(X, Z(-2))"},{"m":1,"shift":3,"mult":1,"group":"0"}],"value":{"formal":["H^0_D(X, Z(-2))","H^0_D(X, Z(-2))","H^0_D(X, Z(-2))","H^0_D(X, Z(-2))","H^2_D(X, Z(-1))","H^2_D(X^2, Z(-1))","H^2_D(X^2, Z(-1))","H^2_D(X^2, Z(-1))","H^4_D(X^3, Z(0))"]}}\n',
    ),
    (
        ('betti', '--k', '4', '--format', 'text'),
        'n=3 d=2 theory=betti mode=formal k=4\nm=3 shift=0 mult=1 group=H_4(X^3)\nm=2 shift=1 mult=3 group=H_2(X^2)\nm=1 shift=1 mult=1 group=H_2(X)\nm=1 shift=2 mult=4 group=H_0(X)\nm=1 shift=3 mult=1 group=0\nvalue: H_0(X) + H_0(X) + H_0(X) + H_0(X) + H_2(X) + H_2(X^2) + H_2(X^2) + H_2(X^2) + H_4(X^3)\n',
    ),
    (
        ('betti', '--k', '4', '--format', 'json'),
        '{"n":3,"d":2,"theory":"betti","mode":"formal","k":4,"terms":[{"m":3,"shift":0,"mult":1,"group":"H_4(X^3)"},{"m":2,"shift":1,"mult":3,"group":"H_2(X^2)"},{"m":1,"shift":1,"mult":1,"group":"H_2(X)"},{"m":1,"shift":2,"mult":4,"group":"H_0(X)"},{"m":1,"shift":3,"mult":1,"group":"0"}],"value":{"formal":["H_0(X)","H_0(X)","H_0(X)","H_0(X)","H_2(X)","H_2(X^2)","H_2(X^2)","H_2(X^2)","H_4(X^3)"]}}\n',
    ),
    (
        ('lawson', '--format', 'latex'),
        '$ L_{p}H_{k}(X^{3}) \\oplus L_{p-1}H_{k-2}(X^{2})^{\\oplus 3} \\oplus L_{p-1}H_{k-2}(X) \\oplus L_{p-2}H_{k-4}(X)^{\\oplus 4} \\oplus L_{p-3}H_{k-6}(X) $\n',
    ),
    (
        ('chow', '--format', 'latex'),
        '$ \\mathrm{Ch}_{p}(X^{3}) \\oplus \\mathrm{Ch}_{p-1}(X^{2})^{\\oplus 3} \\oplus \\mathrm{Ch}_{p-1}(X) \\oplus \\mathrm{Ch}_{p-2}(X)^{\\oplus 4} \\oplus \\mathrm{Ch}_{p-3}(X) $\n',
    ),
    (
        ('db', '--format', 'latex'),
        '$ H^{k}_{\\mathcal{D}}(X^{3},\\mathbb{Z}(p)) \\oplus H^{k-2}_{\\mathcal{D}}(X^{2},\\mathbb{Z}(p-1))^{\\oplus 3} \\oplus H^{k-2}_{\\mathcal{D}}(X,\\mathbb{Z}(p-1)) \\oplus H^{k-4}_{\\mathcal{D}}(X,\\mathbb{Z}(p-2))^{\\oplus 4} \\oplus H^{k-6}_{\\mathcal{D}}(X,\\mathbb{Z}(p-3)) $\n',
    ),
    (
        ('betti', '--format', 'latex'),
        '$ H_{k}(X^{3}) \\oplus H_{k-2}(X^{2})^{\\oplus 3} \\oplus H_{k-2}(X) \\oplus H_{k-4}(X)^{\\oplus 4} \\oplus H_{k-6}(X) $\n',
    ),
    (
        ('lawson', '--p', '1', '--k', '4', '--space', 'p2', '--mode', 'ranks', '--format', 'text'),
        'n=3 d=2 theory=lawson mode=ranks p=1 k=4 space=projective-plane\nm=3 shift=0 mult=1\nm=2 shift=1 mult=3\nm=1 shift=1 mult=1\nm=1 shift=2 mult=4\nm=1 shift=3 mult=1\nvalue: Z^17\n',
    ),
    (
        ('lawson', '--p', '1', '--k', '4', '--space', 'p2', '--mode', 'ranks', '--format', 'json'),
        '{"n":3,"d":2,"theory":"lawson","mode":"ranks","p":1,"k":4,"space":"projective-plane","terms":[{"m":3,"shift":0,"mult":1},{"m":2,"shift":1,"mult":3},{"m":1,"shift":1,"mult":1},{"m":1,"shift":2,"mult":4},{"m":1,"shift":3,"mult":1}],"value":{"free_rank":17,"torsion":[]}}\n',
    ),
    (
        ('chow', '--p', '1', '--space', 'p2', '--mode', 'ranks', '--format', 'text'),
        'n=3 d=2 theory=chow mode=ranks p=1 space=projective-plane\nm=3 shift=0 mult=1\nm=2 shift=1 mult=3\nm=1 shift=1 mult=1\nm=1 shift=2 mult=4\nm=1 shift=3 mult=1\nvalue: Z^7\n',
    ),
    (
        ('chow', '--p', '1', '--space', 'p2', '--mode', 'ranks', '--format', 'json'),
        '{"n":3,"d":2,"theory":"chow","mode":"ranks","p":1,"space":"projective-plane","terms":[{"m":3,"shift":0,"mult":1},{"m":2,"shift":1,"mult":3},{"m":1,"shift":1,"mult":1},{"m":1,"shift":2,"mult":4},{"m":1,"shift":3,"mult":1}],"value":{"free_rank":7,"torsion":[]}}\n',
    ),
    (
        ('betti', '--k', '4', '--space', 'p2', '--mode', 'ranks', '--format', 'text'),
        'n=3 d=2 theory=betti mode=ranks k=4 space=projective-plane\nm=3 shift=0 mult=1\nm=2 shift=1 mult=3\nm=1 shift=1 mult=1\nm=1 shift=2 mult=4\nm=1 shift=3 mult=1\nvalue: Z^17\n',
    ),
    (
        ('betti', '--k', '4', '--space', 'p2', '--mode', 'ranks', '--format', 'json'),
        '{"n":3,"d":2,"theory":"betti","mode":"ranks","k":4,"space":"projective-plane","terms":[{"m":3,"shift":0,"mult":1},{"m":2,"shift":1,"mult":3},{"m":1,"shift":1,"mult":1},{"m":1,"shift":2,"mult":4},{"m":1,"shift":3,"mult":1}],"value":{"free_rank":17,"torsion":[]}}\n',
    ),
    (
        ('betti', '--space', 'p2', '--mode', 'ranks', '--format', 'text'),
        'n=3 d=2 theory=betti mode=ranks space=projective-plane\nm=3 shift=0 mult=1\nm=2 shift=1 mult=3\nm=1 shift=1 mult=1\nm=1 shift=2 mult=4\nm=1 shift=3 mult=1\npoincare = 1 + 7*q^2 + 17*q^4 + 22*q^6 + 17*q^8 + 7*q^10 + q^12\n',
    ),
    (
        ('betti', '--space', 'p2', '--mode', 'ranks', '--format', 'json'),
        '{"n":3,"d":2,"theory":"betti","mode":"ranks","space":"projective-plane","terms":[{"m":3,"shift":0,"mult":1},{"m":2,"shift":1,"mult":3},{"m":1,"shift":1,"mult":1},{"m":1,"shift":2,"mult":4},{"m":1,"shift":3,"mult":1}],"poincare":{"coeffs":[1,0,7,0,17,0,22,0,17,0,7,0,1]}}\n',
    ),
    (
        ('db', '--p', '0', '--k', '4', '--space', 'DB_SURFACE', '--mode', 'ranks', '--format', 'text'),
        'n=3 d=2 theory=db mode=ranks p=0 k=4 space=surface\nm=3 shift=0 mult=1\nm=2 shift=1 mult=3\nm=1 shift=1 mult=1\nm=1 shift=2 mult=4\nm=1 shift=3 mult=1\nvalue: Z + H^0_D(X, Z(-2)) + H^0_D(X, Z(-2)) + H^0_D(X, Z(-2)) + H^0_D(X, Z(-2)) + H^2_D(X, Z(-1)) + H^2_D(X^2, Z(-1)) + H^2_D(X^2, Z(-1)) + H^2_D(X^2, Z(-1))\n',
    ),
    (
        ('db', '--p', '0', '--k', '4', '--space', 'DB_SURFACE', '--mode', 'ranks', '--format', 'json'),
        '{"n":3,"d":2,"theory":"db","mode":"ranks","p":0,"k":4,"space":"surface","terms":[{"m":3,"shift":0,"mult":1},{"m":2,"shift":1,"mult":3},{"m":1,"shift":1,"mult":1},{"m":1,"shift":2,"mult":4},{"m":1,"shift":3,"mult":1}],"value":{"free_rank":1,"torsion":[],"formal":["H^0_D(X, Z(-2))","H^0_D(X, Z(-2))","H^0_D(X, Z(-2))","H^0_D(X, Z(-2))","H^2_D(X, Z(-1))","H^2_D(X^2, Z(-1))","H^2_D(X^2, Z(-1))","H^2_D(X^2, Z(-1))"]}}\n',
    ),
    (
        ('db', '--p', '1', '--k', '4', '--space', 'DB_SURFACE', '--mode', 'ranks', '--format', 'text'),
        'n=3 d=2 theory=db mode=ranks p=1 k=4 space=surface\nm=3 shift=0 mult=1\nm=2 shift=1 mult=3\nm=1 shift=1 mult=1\nm=1 shift=2 mult=4\nm=1 shift=3 mult=1\nvalue: Z^10 + Z/2 + Z/3 + Z/3 + Z/3 + H^0_D(X, Z(-1)) + H^0_D(X, Z(-1)) + H^0_D(X, Z(-1)) + H^0_D(X, Z(-1))\n',
    ),
    (
        ('db', '--p', '1', '--k', '4', '--space', 'DB_SURFACE', '--mode', 'ranks', '--format', 'json'),
        '{"n":3,"d":2,"theory":"db","mode":"ranks","p":1,"k":4,"space":"surface","terms":[{"m":3,"shift":0,"mult":1},{"m":2,"shift":1,"mult":3},{"m":1,"shift":1,"mult":1},{"m":1,"shift":2,"mult":4},{"m":1,"shift":3,"mult":1}],"value":{"free_rank":10,"torsion":[2,3,3,3],"formal":["H^0_D(X, Z(-1))","H^0_D(X, Z(-1))","H^0_D(X, Z(-1))","H^0_D(X, Z(-1))"]}}\n',
    ),
]


@pytest.mark.parametrize("extra, expected", PINNED)
def test_decompose_bytes(capsys, tmp_path, extra, expected):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(SURFACE_DOC))
    argv = [str(path) if arg == DB_SURFACE else arg for arg in extra]
    code = main(["decompose", "--theory", argv[0], "--n", "3", "--d", "2", *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


KERNEL_PINS = [
    (("h-poly", "--n", "24", "--d", "3"),
     "e472d3aa3178a7b02dcc96dee2e7aa7e6883f8dcce5b713a49451ebfefa76198"),
    (("mult", "--n", "20", "--d", "4"),
     "f4076c518d15208c56149094578d051f47b3d034447dfd99ba815761a4dba763"),
    (("egf", "--n", "20", "--d", "3", "--verify"),
     "95d2863e76201d76745507562ee2c293f111dbb4ccfbb071da660888fdabcfec"),
    (("decompose", "--theory", "betti", "--n", "17", "--d", "2", "--mode", "ranks",
      "--space", "p2"),
     "0c11c90acdbc00e46bb1a439ef67c757a0fe066fb9b625a86a2c1dbbb73ca1e4"),
    (("egf", "--n", "40", "--d", "1", "--verify"),
     "8e0ab2a3e06c3b3f83c8f51ea2ae69f8843626bb967219a52a19acc25f3dfaca"),
    (("egf", "--n", "30", "--d", "4", "--verify"),
     "1e5b1fdb142000879f42a852afe3ad89d7cef403368c4eb35605225b5d99e7c7"),
]


@pytest.mark.parametrize("argv, digest", KERNEL_PINS)
def test_kernel_size_json_digest(capsys, argv, digest):
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


NEST_PINS = [
    (("nests", "--n", "6"),
     "33a4874bf0f8b23d7977e5c2039b63774296839ee23702e2f5697b3dcb0ac693"),
    (("nests", "--n", "6", "--format", "json"),
     "7dbf520be13f201c1b17e40acdcc0604a163612fb971c581213d976862537aca"),
    (("verify", "--max-n", "6", "--max-d", "3"),
     "cb2c04a37e7dc3bfc37445ac9a31c7e8af08ddf8ded30975a981acab6a84235c"),
    (("verify", "--max-n", "6", "--max-d", "3", "--format", "json"),
     "1fb0b396b33c5ac0b34871754a5e6de2bba2608edcc1f1a2b235a95689b2826d"),
]


@pytest.mark.parametrize("argv, digest", NEST_PINS)
def test_nest_route_digest(capsys, argv, digest):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
