"""Every ``python -m repro`` verb's output, pinned byte for byte.

Each case runs one command in-process at reduced scale, between them
typing most of every verb's flags, and compares its exit code and the
sha256 of its stdout and of its ``--json`` file with recorded values.  A
moved digest means a verb's output moved: rerun the command by hand and
diff it against an older checkout.
"""

import hashlib

import pytest

from repro.__main__ import main

#: name -> (command line, sha256 of stdout, sha256 of the --json file or None)
CASES = {
    "traffic": (
        "traffic mixed OUT --packets 8000 --flows 300 600 --warmup 500"
        " --churn 0.001 --mixes zipf scan --scan-fraction 0.3 --rpc-fraction 0.5"
        " --zipf-s 1.2 --schemes one-entry lru:4 --seed 3",
        "efd76872080bcefbdaedd736d6d0f55f09cedba3ffb904783c10eccbfe29cd6f",
        "a8beed5257d36908063e855382edbe2d7345319cfdaa02aa1d0fcaa17e92fd2d",
    ),
    "resilience": (
        "resilience tcpip OUT --packets 5000 --flows 200 --warmup 500"
        " --churn 0.001 --fault-rates 0 0.02 --loads 80 100 120"
        " --mixes zipf bursty --schemes lru:4 --scope hot --profile-seed 2"
        " --queue-capacity 32 --seed 1",
        "e1b280d9aa07f6ca2d317ac96617999f215968c32cb552d4b782948d32b55c90",
        "3efdad48c1141a3d6771b958e4a1f686d72bc53ca8ec668c101c644afa2c1c1a",
    ),
    "resilience-unbounded": (
        "resilience rpc STD --packets 3000 --flows 100 --warmup 300"
        " --fault-rates 0.05 --policy unbounded --loads 90 130",
        "f189f7ebf7848b6fb9fcb657270dce3e066e059ad19a483169a6187f380a62ca",
        "06ff449d0baf9f7e02aae1564ee9c652a408853a772f5b7241ce933b45533cd1",
    ),
    "search": (
        "search tcpip CLO --budget 6 --seed 1 --base-seed 43",
        "d73c591a1a093d2c2731e070d21559d548a850459f91538e4633756b5c144763",
        "f1fcbd72fae9ad361bb4d9219d4a4ec0b6a89c097872c7b5c1d15d2ddda24700",
    ),
    "faults": (
        "faults tcpip all --rate 0.25 --samples 1"
        " --kinds bad_demux_key corrupt_checksum --seed 2",
        "1b72e66efea2c7ba45ba73a20fe5ee63c91f2235012145ce58df63a6aa21b037",
        "1d72a41c7643709261504c2deed5da285fa28bbe696f319fb2d676d2574d475e",
    ),
    "analyze": (
        "analyze tcpip CLO --bounds --show-prediction --seed 43",
        "0077d7a962e4a2934c8cfb2cb25a373d6149f55644259a41d1064c4646d03ce6",
        "f9480c0804ec5cc1fd8fc5238bf01fd0676dec1b15115c5132daa3dd36ed6581",
    ),
    "analyze-static-all": (
        "analyze all all --static-only",
        "5e40beec645b021dd87d15542a83419e4e5b9c9755dd5366228987a30a8e4ab8",
        "f7304e08946a11480b0bfe6baa303b6b3d7ff3ef93bd96074e59fac8edf88f06",
    ),
    "profile": (
        "profile rpc OUT --top 5 --seed 43",
        "88b1cdfd6a9d0e4033e2b686eed4ff6ce2921d26a6342ef8bce46a556618961d",
        "e4f57b8d530c7586ccc743fc779131955d8550b0fa39351c1b00bb1e4926b248",
    ),
    "datalayout": (
        "datalayout --techniques pack coalesce --stacks tcpip --configs STD CLO"
        " --seed 43",
        "aaa6a8a8097b823792b73d35248f4339e99a8730ea0a05d605f4fd95c3051294",
        "3b82020cd42cccaa9defa554dec02bfee4a576a8571b40c18064245179ac9a3f",
    ),
    "tables": (
        "--samples 1",
        "03270e54ed460ff09a6f9e6c58b31ccbf9f9492a7635d4f00ec93fe650040a84",
        None,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_pinned(name, tmp_path, capsys):
    command, stdout_sha, json_sha = CASES[name]
    argv = command.split()
    path = tmp_path / "out.json"
    if json_sha is not None:
        argv = argv + ["--json", str(path)]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert _sha(out.encode()) == stdout_sha
    if json_sha is not None:
        assert _sha(path.read_bytes()) == json_sha
