"""Unit tests for IRONMAN calls and bindings (paper Figure 5)."""

import pytest

from repro.errors import MachineError
from repro.ironman import BINDINGS, CallKind, binding_for


def test_figure5_paragon_message_passing():
    b = binding_for("nx")
    assert b.as_rows() == (
        ("DR", "noop"),
        ("SR", "csend"),
        ("DN", "crecv"),
        ("SV", "noop"),
    )


def test_figure5_paragon_asynchronous():
    b = binding_for("nx_async")
    assert b.as_rows() == (
        ("DR", "irecv"),
        ("SR", "isend"),
        ("DN", "msgwait"),
        ("SV", "msgwait"),
    )


def test_figure5_paragon_callback():
    b = binding_for("nx_callback")
    assert b.as_rows() == (
        ("DR", "hprobe"),
        ("SR", "hsend"),
        ("DN", "hrecv"),
        ("SV", "msgwait"),
    )


def test_figure5_t3d_pvm():
    b = binding_for("pvm")
    assert b.as_rows() == (
        ("DR", "noop"),
        ("SR", "pvm_send"),
        ("DN", "pvm_recv"),
        ("SV", "noop"),
    )


def test_figure5_t3d_shmem():
    b = binding_for("shmem")
    assert b.as_rows() == (
        ("DR", "synch"),
        ("SR", "shmem_put"),
        ("DN", "synch"),
        ("SV", "noop"),
    )


def test_primitive_lookup_by_kind():
    b = binding_for("pvm")
    assert b.primitive(CallKind.SR) == "pvm_send"
    assert b.primitive(CallKind.DR) == "noop"


def test_unknown_library_rejected_with_valid_list():
    with pytest.raises(MachineError) as exc:
        binding_for("mpi")
    assert "pvm" in str(exc.value)


def test_all_five_libraries_present():
    assert set(BINDINGS) == {"nx", "nx_async", "nx_callback", "pvm", "shmem"}
