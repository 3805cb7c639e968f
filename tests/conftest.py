from pathlib import Path

import pytest

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS


def shared_private_frames(sim) -> set[int]:
    """Frames that two process address spaces map, in one of them privately
    without copy-on-write. An enclave's isolated address space maps its
    host's frames by design, and is not a process's."""
    vmem = sim.vmem
    asids = {proc.asid for proc in sim.processes.values()}
    found = set()
    for frame_id, mappings in vmem.rmap.items():
        mappings = [(asid, vpn) for asid, vpn in mappings if asid in asids]
        if len({asid for asid, _ in mappings}) < 2:
            continue
        for asid, vpn in mappings:
            pte = vmem.spaces[asid].entries[vpn]
            if not pte.shared and not pte.cow:
                found.add(frame_id)
    return found
