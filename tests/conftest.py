import json
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


def pair_race(openers: int, racers: int, one_page: bool = False) -> dict:
    """One sandboxed process whose opener threads each ``openat`` the path
    "file1" on a page, while its racer threads each write "2" over byte 4 of
    a page. On distinct pages opener i and racer i share a one-page mapping
    of their own, the mappings adjacent; on one page every thread uses the
    first. The rules allow ``read``, ``exit_group`` and ``openat`` of
    "file1" only."""
    pages = 1 if one_page else max(openers, racers)
    vaddrs = [0x10000 + 0x1000 * i for i in range(pages)]
    return {
        "version": 1, "name": f"pair_race_{openers}+{racers}" + ("_one_page" if one_page else ""),
        "filters": {"rules": [
            {"nr": "read"}, {"nr": "exit_group"}, {"nr": "openat", "arg": 1, "strings": ["file1"]},
        ]},
        "processes": [{
            "name": "p", "sandboxed": True,
            "mappings": [{"vaddr": vaddr, "data": [{"at": vaddr, "string": "file1"}]} for vaddr in vaddrs],
            "threads": [
                {"name": f"opener{i}", "ops": [{"op": "syscall", "nr": "openat", "args": [0, vaddrs[i % pages], 0]}]}
                for i in range(openers)
            ] + [
                {"name": f"racer{i}", "ops": [{"op": "write", "vaddr": vaddrs[i % pages] + 4, "string": "2"}]}
                for i in range(racers)
            ],
        }],
        "schedule": {"mode": "exhaustive", "max_steps": 400},
    }


def double_write_racer() -> dict:
    """The 1+1 one-page pair race whose racer writes "1" at byte 4 and then
    "2". The first write leaves "file1" intact and fills the racer core's
    TLB entry for the page before the window opens."""
    raw = pair_race(1, 1, one_page=True)
    raw["name"] = "double_write_racer"
    racer = raw["processes"][0]["threads"][1]
    racer["ops"].insert(0, dict(racer["ops"][0], string="1"))
    return raw


def sgx_data_only_with(name: str, threads: list[dict], mappings: tuple[dict, ...] = ()) -> dict:
    """sgx_data_only, named ``name``, with ``threads`` and ``mappings`` added
    to its host process."""
    raw = json.loads((SCENARIOS / "sgx_data_only.json").read_text())
    raw["name"] = name
    host = raw["processes"][0]
    host["mappings"] += mappings
    host["threads"] += threads
    return raw


def enclave_race() -> dict:
    """sgx_data_only with a second host thread that writes the data bridge
    page while the enclave runs, then reads the secret page."""
    return sgx_data_only_with("enclave_race", [{
        "name": "other", "rsp": 0x302000,
        "ops": [{"op": "write", "vaddr": 0x201000, "string": "zz"}, {"op": "read", "vaddr": 0x80000, "len": 4}],
    }])


def enclave_bystanders(k: int) -> dict:
    """sgx_data_only plus ``k`` host threads, each writing one byte of a page
    of its own and then reading it back. Nothing else maps those pages."""
    vaddrs = [0x400000 + 0x1000 * i for i in range(k)]
    return sgx_data_only_with(
        f"enclave_bystanders_{k}",
        [{"name": f"bystander{i}", "ops": [{"op": "write", "vaddr": vaddr, "string": "b"},
                                           {"op": "read", "vaddr": vaddr, "len": 1}]}
         for i, vaddr in enumerate(vaddrs)],
        tuple({"vaddr": vaddr} for vaddr in vaddrs),
    )


def enclave_outsider(caller: str) -> dict:
    """sgx_data_only whose enclave only exits, called from outside the
    address space it was built in by ``caller``:

    - "fork child": the child of the host's thread, which then writes
      "child" over the host's secret;
    - "guest": the thread of a process of its own, beside the host's caller;
    - "exec": the host's thread, after an exec.

    The guest and the exec'd thread then read a page of their own at
    0x600000, which the host does not map."""
    raw = json.loads((SCENARIOS / "sgx_data_only.json").read_text())
    raw["name"] = f"enclave_outsider_{caller.replace(' ', '_')}"
    raw["enclaves"][0]["script"] = [{"op": "eexit", "target": "legal"}]
    host = raw["processes"][0]["threads"][0]
    ecall, own_page = {"op": "ecall", "enclave": "evil"}, {"vaddr": 0x600000, "pages": 4}
    read = {"op": "read", "vaddr": 0x600000, "len": 1}
    if caller == "fork child":
        host["ops"] = [{"op": "fork", "child": [ecall, {"op": "write", "vaddr": 0x80000, "string": "child"}]}]
    elif caller == "guest":
        raw["processes"].append({
            "name": "guest", "mappings": [own_page],
            "threads": [{"name": "guest-main", "rsp": 0x602000, "ops": [ecall, read]}],
        })
    else:
        host["ops"] = [{"op": "exec", "path_vaddr": 0x80000, "image": {"mappings": [own_page], "ops": [ecall, read]}}]
    return raw
