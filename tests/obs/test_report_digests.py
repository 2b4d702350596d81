"""Pinned attribution reports: every bucket, not just the sums.

The grid golden checks per-cache sums and ``BENCH_attrib.json`` checks
per-layer and per-kind sums.  These digests pin the whole cold and
steady :meth:`~repro.obs.attribution.AttributionReport.to_json` of the
12 cells under the ``baseline`` and ``all`` data techniques: every
(layer, function, cache, kind) bucket with its event count, the
per-function instruction counts and the conflict matrix.  Both engines
must reproduce them, through the ``profile_cell`` pass structure (cold,
one warm-up, steady).
"""

import hashlib
import json

import pytest

from repro.arch.fastsim import FastMachine
from repro.arch.simulator import AlphaConfig, MachineSimulator
from repro.core.fastwalk import FastWalker
from repro.core.walker import DataSlots
from repro.datalayout import DATA_TECHNIQUES, readdress, survey_data_refs
from repro.harness.configs import CONFIG_NAMES, build_configured_program
from repro.harness.experiment import Experiment
from repro.obs import Attribution

#: (technique, stack, config) -> sha256 of the (cold, steady) report JSON
DIGESTS = {
    ("all", "rpc", "ALL"): (
        "6be4c942f2cf4c0404d01fbabb789f1f14784152ed31c62f96885a956953204c",
        "ee622aa263aa2942ec95ad5ed5a600b01cf31730b79a0fc7d3493d7dca9f82cb",
    ),
    ("all", "rpc", "BAD"): (
        "ca0bccc673a7cc459821dccd2ebd73800858022d711b5be0affcecacae60269a",
        "7f0de9556f44e29f698f45d184c87614bd918c3a6d8205f001d903bf432d0ac7",
    ),
    ("all", "rpc", "CLO"): (
        "ae6bdac635f2c79ad871f3cece7ffd1b1f76fd08bcf860f4ab1409a2f888e222",
        "c7e6cb9c4ca0a1e1f89340515639fd6ff3f70bdf5643cd1686a6b687c7ba00d1",
    ),
    ("all", "rpc", "OUT"): (
        "6755e9e09ea89e96a4b8ad3462cbe89f1d1fd31fa2e3505d25ce8111d130448f",
        "0a3ab858d84ad19173b94ffa3599148c916e99443e5780eb805cd741d59cdbc3",
    ),
    ("all", "rpc", "PIN"): (
        "74fcbf41afba4fd2835c7ade694ae316ba908b34a429c1a022f46c7af9a4df7e",
        "394be731e215cf7953d51a9ffc08ee75524174cb5fbdc4803ddb9935742985b5",
    ),
    ("all", "rpc", "STD"): (
        "b1b5cef8d8bff0035d0733f02408174f0eb6bad8f83fba54eb6024cb5e3ab2f5",
        "b897d12e7d6a66c8ddf758d5dbb64e0eca9e920fb4c335cbc7146044ff1e0221",
    ),
    ("all", "tcpip", "ALL"): (
        "67385802aeba3a32f99c3c202f22847314d1e1c0020695bd1c1545375a377d13",
        "90ee6102affdeed11a3408af6019522a318cc876a3875e8d9013a14869933bcd",
    ),
    ("all", "tcpip", "BAD"): (
        "df0d9d4cf81c840d49aba52cb5f7daa938d51d7b5c521175bff03b792be4f437",
        "7ba4733ce3ff9b8db58083af76e1de3baa2e4f83e96fb9cb36915441cf5645d3",
    ),
    ("all", "tcpip", "CLO"): (
        "b8a2aaf161b312783512d2ff083e5798f2c163d200da54814c230689fc3a0488",
        "d0a1263ab98d9472756852405899116770e08fc0f58ea6450994481a2c244fcb",
    ),
    ("all", "tcpip", "OUT"): (
        "97b9da47469f5f03a2cbeeb56fe0be10c4b4081ec8c760c19b3c0e5b848762a8",
        "8bf9625003e1d211d10c8f7163624621e0acf21d94c80e05082f095a7ffb73ad",
    ),
    ("all", "tcpip", "PIN"): (
        "09689f5326d3dee1cc42a24452beec01223ddb87f7f8dec4da9039e88fe98eb3",
        "cbe1be496196621267ef057a8e025bd621aef207ec6e3b4667e80e5f7ccba00a",
    ),
    ("all", "tcpip", "STD"): (
        "dd4f1cc698a49386203b1322b1102307910e66ab2aa16fd99c4dbf703ed911dc",
        "73ca3bc8d794753c5bdc685804cec62fe7bf18a9a397972d52b35375916d2457",
    ),
    ("baseline", "rpc", "ALL"): (
        "cf0ad19d55af275b60f1dae36059a0a0c1055518630c75e9828f4e2edfd77091",
        "0277f4c6cfc2623350a4864dc0de9c7cbcc2b5564881ed991e35bc9756ddc1b0",
    ),
    ("baseline", "rpc", "BAD"): (
        "b22734d9a4970dca0b41c2473a4f79a306feb7d38a24eea73cc12d275b1d548b",
        "ebc5d20da637ac5025d683954a7b197eff3cdeddc465e80a6f2584d4baddf36b",
    ),
    ("baseline", "rpc", "CLO"): (
        "2c03dd67fb13b5e750fb0c345a4c5f80cf2475358274d10b64c127f1c2a1ef4f",
        "e2311b2990a11683074f27b90d5531af60a817bbc70a260be0511e5824b170fc",
    ),
    ("baseline", "rpc", "OUT"): (
        "e5a52545afcb9cb0a5ae1259e4062bc6be3b0cd71300fd5d359053413acdf067",
        "1929d9290fe19714f47bc1c1231d447730c67fc0d944edbc8116d301f00f6242",
    ),
    ("baseline", "rpc", "PIN"): (
        "249d587ff80e0ca1370e2b55835ec289aee65780943c7c169219c22b4f93ff70",
        "14e88a2365f37046ba45021cca3280abe16905e27aa5d73bbd3b1dba4025dc65",
    ),
    ("baseline", "rpc", "STD"): (
        "30edcb0c8b6fea440cb91a785f3f605b0dd85d3dd30b9fd6c3b9aa0dc3531982",
        "34cad5eafd9b8cfe979ef14dace93933c87d2eaab2e87038b8967240c4859f2e",
    ),
    ("baseline", "tcpip", "ALL"): (
        "6495354681324fd10a2b420e9accc25db2091c561b917f7e0b45523455f801e4",
        "16c28c2b06bce9a84eaff3168f2e64eaf731a97b0adad3b3b155035bf8ccb6f8",
    ),
    ("baseline", "tcpip", "BAD"): (
        "09bdc1a716ed37d44a2ec199378692acd6ac6c70de46e5acd06825529ea886ef",
        "c972d12d1bf52f9aad27bab8f9b3985436b291390d866c12638d4a0f1df34322",
    ),
    ("baseline", "tcpip", "CLO"): (
        "4d436fb3e919917d8a5c30868170c74462bca04d01baeb7d9e231c2606e03726",
        "c1037a2729d6b84cfe1c2a12c3bbb67097fd75d678857b7c23f8d00d72186072",
    ),
    ("baseline", "tcpip", "OUT"): (
        "f001763590e58cba16358e57cb1ea16d153e94211270391d37e9449629dff0c3",
        "9dacce954c3cdb6522b88d9865ce3f71b439ba64539347cea5e840e0dbd14c69",
    ),
    ("baseline", "tcpip", "PIN"): (
        "f7a38a36d37ba4b98c4b45dda220acd7322c6de456398f22734c9b77eaa02a0f",
        "7d7de0894caf89cf0c2becc864b44f941c431b1d961b1714ebac61fdc8863de5",
    ),
    ("baseline", "tcpip", "STD"): (
        "a598b7c737d9349fe51d261e0c0c8ab6acc7dd658c0d18894a0f0bdee23a46f3",
        "f1ee462c2066e51baab091543da0829071ab4abe76300efe12d84258288243de",
    ),
}

CELLS = sorted(DIGESTS)


@pytest.fixture(scope="module")
def images():
    """(program, walk) per (technique, stack, config), as the grid builds them."""
    out = {}
    for stack, config in sorted({(stack, config) for _, stack, config in CELLS}):
        program = build_configured_program(stack, config, None).program
        survey = survey_data_refs(program)
        events, data_env = Experiment(stack, config).capture_roundtrip(42)
        slots = DataSlots()
        walk = FastWalker(program, dict(data_env)).walk(events, on_dref=slots.record)
        for name in ("baseline", "all"):
            technique = DATA_TECHNIQUES[name]
            plan = survey.plan(
                pack=technique.pack,
                split=technique.split,
                block_size=technique.memory().block_size,
            )
            out[(name, stack, config)] = (program, readdress(walk, slots, plan.remaps))
    return out


def _sha(report) -> str:
    text = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_grid_cell_is_pinned():
    assert CELLS == sorted(
        (name, stack, config)
        for name in ("baseline", "all")
        for stack in ("tcpip", "rpc")
        for config in CONFIG_NAMES
    )


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_reports_match_the_pinned_digests(images, cell, engine):
    program, walk = images[cell]
    config = AlphaConfig(memory=DATA_TECHNIQUES[cell[0]].memory())
    sink = Attribution(program, config=config)
    if engine == "fast":
        machine, trace = FastMachine(config, sink=sink), walk.packed
    else:
        machine, trace = MachineSimulator(config, sink=sink), walk.trace
    machine.run(trace)
    cold = sink.harvest("cold")
    machine.warm_up(trace)
    machine.run(trace)
    steady = sink.harvest("steady")
    assert (_sha(cold), _sha(steady)) == DIGESTS[cell]
