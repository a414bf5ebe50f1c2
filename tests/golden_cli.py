"""Byte-for-byte check of the CLI against recorded output; not part of the tier-1 suite.

Usage, from the root of a checkout:  python3 tests/golden_cli.py

Runs ``stanley.cli.main`` in process on every argv in ``CASES`` and compares
its exit code and the sha256 of its stdout with the values recorded below.
Stderr (timings, error messages) is not compared.  Prints one line per case
and exits 1 on any mismatch; a mismatch line shows the new exit code and hash,
so a change meant to alter the output updates its row by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stanley.cli import main  # noqa: E402

#: (argv, exit code, sha256 of stdout)
CASES: list[tuple[tuple[str, ...], int, str]] = [
    (("coverage", "--max", "2000"), 0,
     "0de1e4379b119fe0b786138b4c178035e2ea788ba640f141a7f5ffe03244e948"),
    (("coverage", "--max", "2000", "--json"), 0,
     "90867e6cc6ca06e2ebd49eaff0a8277bc94cb8d949bf56c3f36f3e768318ceb0"),
    (("coverage", "--max", "10000", "--json"), 0,
     "ee72ff4a304dd2eb31c035383b46bf48e8563a55d62d09fff1305f6c7eb73057"),
    (("coverage", "--max", "40000", "--no-deep"), 0,
     "b0ea3babdf4a59561c5f73f94c623e2e8f434637c1d57064556fe4b1c89a0ac3"),
    (("verify", "N=3; 0,1"), 0,
     "ff7243600251f2bf7e6cca9b427fe56cf44e31297fee0cb28870eb950492f605"),
    (("verify", "N=9; 0,1,6,7"), 0,
     "d3f75fbbf2659c129bd2db30d075a27885729236e77c0c8388653a22f3feec3d"),
    (("verify", "N=10; 0,7,9,16"), 0,
     "f0920553c3684142eaf8bc3229c5c6415dec7b3356eede7ff845158790e74be1"),
    (("verify", "N=28; 0,13,17,23,30,40,53,64"), 0,
     "bdb7b16d76e855766dbb3ce17e24ae05b6c21738318ddd760df9228df40e4a99"),
    (("verify", "N=8; 0,1,3"), 1,
     "91f7f65fb5d6bead9ca27b1b1ebcbd27b359faea3dffdfaa4142848f96880c91"),
    (("verify", "N=12; 0,1,3,4,9"), 1,
     "d6f908fbaebe2019bc77f4f1279b5697deefd09d82b45e8e8a7f07d285c95aab"),
    (("verify", "N=7; 0,1,2"), 1,
     "b1df30b7d960dc6ca2d6ba142808ecfa67ac9d3d6605501123ca72d963f16b89"),
    (("verify", "--modular", "N=10; 0,1,7,8"), 0,
     "55913594e04a237ba495abbeb0d065784e03ba2c59aec0bf9456fd7bd5c4fbca"),
    (("verify", "N=6; 0,3"), 1,
     "4cd381f96a8d486577ca68c8178b8c244b4cf0216bdd6242fde61ab65c1d886d"),
    (("verify", "N=16777216; 0,1"), 1,
     "da2e9b76961269d0a9e030e51823393fcd693b05a7d32d0e9104bb569e0f04ec"),
    (("verify", "N=9; 0,1,6,7", "-1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("family", "--list"), 0,
     "5b64ff6f24e5cc2b8444802cff523292cad4d27f44c1e5e793cfe7f5a858a03a"),
    (("family", "C:3", "--character"), 0,
     "43216fa0d59e1a85f04393d172a64cf0cd2823b3faffdb08dba6936aaca6ceca"),
    (("family", "D:2", "--character"), 0,
     "42052961ee3064d1f6bca70a1c9ddec27ef79e4376b1ea2ffcd61e3d1ca91923"),
    (("family", "E:2", "--character"), 0,
     "09cd4bed804505057177e3c0eda752df9673a65cab63183b9e8e017ed4d46f61"),
    (("family", "F:4", "--character"), 0,
     "0e9e9fa1781225de0b74d74234f894cf411817b4312cc6d70e144d82b22b11e4"),
    (("family", "Atk:3,7", "--character"), 0,
     "52163057673012ff699e1bd5ebcfe274358fffd06719f815fa7714a531050757"),
    (("family", "Acal:3", "--character"), 0,
     "c0ad031e87455ee62bee29394584768b8eec239092fcc5481d95b76a12d693b3"),
    (("family", "Bcal:3", "--character"), 0,
     "31a0533ec17c4cea8dbb2f969f0a6694e397b9bb9418fb21450428e216a26669"),
    (("family", "At:8", "--character"), 0,
     "76bfd4b10458f3a068aaa11ee85848c264e01ae842bf2fa8fe7e7bc6a1874d5f"),
    (("witness", "--lambda", "0", "--deep"), 0,
     "a9bb3f9f57aad6f3669b250384cfdea22c53632d51d7be8c269ff95b4ad6b497"),
    (("witness", "--lambda", "4", "--deep"), 0,
     "d7426d87261e584be0ec5f0f363fe7f06663b1a366589ad85b83ef452b88753c"),
    (("witness", "--lambda", "7", "--deep"), 0,
     "c551ebfdd71ad78058b746c896165f11306d5f299d21dd9f9d4ca2bf76c26606"),
    (("witness", "--lambda", "63", "--deep"), 0,
     "c66b86d42b015ae9232c109f022ac74708345e0bb1947afe5d6116708a3c9f53"),
    (("witness", "--lambda", "121", "--deep"), 0,
     "16f89be083b8e9c7e8f0795b51ec0ee684914d7ef32d81eb05a2866272a0fc1c"),
    (("witness", "--lambda", "4861", "--deep"), 0,
     "13e733e45deffc84e37ead7a0c4db4ad1833721530e7b07099ff775ec1118f35"),
    (("witness", "--lambda", "59050", "--deep"), 0,
     "4179ac9aaac100ee2df3092feafc6ef1ba2ab5df5c9d71ac403de8336881ed1d"),
    (("witness", "--lambda", "100001", "--deep"), 0,
     "8307293d57ce6077042d4e19a1f1b5361e45ae72fa5d8a7bf6bdf424eead9e10"),
    (("witness", "--lambda", "9223372036854775807", "--deep"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("appendix-check",), 0,
     "1b89d88669e9cb034bc5f5d8eada1681e513a9a326eb5769542753aa421b009d"),
    (("erratum-report",), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("search", "--mod", "28", "--max", "57", "--size", "8"), 0,
     "21f79207d743e68e8b7fe914dd36d05119820a1d1944043369133a470fe9f13d"),
    (("search", "--mod", "12", "--max", "11", "--size", "4"), 1,
     "961430e94cc093bc5e876338cb095d3fb3cb346b24fd36a62dce9410d7d43b0d"),
    (("search", "--mod", "28", "--max", "57", "--size", "8", "--budget", "50"), 3,
     "091c1ffa0f9168dff31be1814747c54c119715a3d7a6a08eb2c7e5f0316eb468"),
    (("search", "--mod", "28", "--max", "57", "--size", "8", "--budget", "50", "--resume", "11"), 3,
     "6db2ead3bce9d6e6de083b86fd0b4a9c6e01fab4f82d4f61f26028728edde285"),
    (("search", "--mod", "10", "--max", "1000000000", "--size", "100000000"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("generate", "--count", "64", "--diagnostic"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("character", "--seed", "0,1,6,7,10,15,16,18", "--count", "64", "--omitted"), 0,
     "0f680e4d894c3b0cca840d21a373f45426a12fff7cf3e1fc196075b00408fa49"),
    (("product", "N=3; 0,1", "N=9; 0,1,6,7", "--scale", "2", "--character"), 0,
     "8ef5fa50c488bb216f3b0f738cfe5ca8d4a8327f25dc0314b7ed2a504684471f"),
    (("product", "N=10; 0,7,9,16", "N=3; 0,2", "--to-modular"), 0,
     "ca16997eb28c3e632801557bac72aea8128c093c77f2a0dd96f39a9dd2de5d91"),
]


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage error: an unknown verb or option
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def check() -> int:
    started = time.perf_counter()
    failures = 0
    for argv, want_code, want_hash in CASES:
        code, digest = run(argv)
        ok = (code, digest) == (want_code, want_hash)
        failures += not ok
        line = f"{'ok  ' if ok else 'FAIL'} {' '.join(argv)}"
        print(line if ok else f"{line}\n     got exit {code}, sha256 {digest}", flush=True)
    print(f"{len(CASES) - failures}/{len(CASES)} match in {time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(check())
