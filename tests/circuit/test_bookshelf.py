"""Tests for Bookshelf reading/writing, including malformed input."""

import numpy as np
import pytest

from repro.circuit import (BookshelfError, DesignSpec, generate_design,
                           read_design, write_design)
from repro.circuit.bookshelf import read_aux


@pytest.fixture(scope="module")
def design():
    return generate_design(DesignSpec(name="bs", seed=11, num_movable=120,
                                      num_terminals=12, num_macros=2,
                                      die_size=32.0))


@pytest.fixture(scope="module")
def written(design, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bookshelf")
    aux = write_design(design, str(directory))
    return aux


class TestRoundTrip:
    def test_counts_preserved(self, design, written):
        d2 = read_design(written)
        assert d2.num_cells == design.num_cells
        assert d2.num_nets == design.num_nets
        assert d2.num_pins == design.num_pins
        assert d2.num_terminals == design.num_terminals

    def test_positions_preserved(self, design, written):
        d2 = read_design(written)
        assert np.allclose(d2.cell_x, design.cell_x, atol=1e-6)
        assert np.allclose(d2.cell_y, design.cell_y, atol=1e-6)

    def test_pin_offsets_preserved(self, design, written):
        d2 = read_design(written)
        assert np.allclose(d2.pin_dx, design.pin_dx, atol=1e-6)
        assert np.allclose(d2.pin_dy, design.pin_dy, atol=1e-6)

    def test_connectivity_preserved(self, design, written):
        d2 = read_design(written)
        assert np.array_equal(d2.net_ptr, design.net_ptr)
        assert np.array_equal(d2.pin_cell, design.pin_cell)

    def test_hpwl_matches(self, design, written):
        d2 = read_design(written)
        assert d2.hpwl() == pytest.approx(design.hpwl(), rel=1e-6)

    def test_aux_mapping(self, written):
        files = read_aux(written)
        assert set(files) >= {"nodes", "nets", "pl", "scl"}


class TestMalformedInput:
    def test_missing_colon_in_aux(self, tmp_path):
        p = tmp_path / "bad.aux"
        p.write_text("RowBasedPlacement x.nodes\n")
        with pytest.raises(BookshelfError):
            read_aux(str(p))

    def test_missing_required_file_entry(self, tmp_path):
        p = tmp_path / "bad.aux"
        p.write_text("RowBasedPlacement : only.nodes\n")
        with pytest.raises(BookshelfError):
            read_aux(str(p))

    def test_unknown_cell_in_nets(self, tmp_path):
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\na 1 1\n")
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2 n0\n  a B : 0 0\n  ghost B : 0 0\n")
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\na 0 0 : N\n")
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl\n")
        with pytest.raises(BookshelfError, match="unknown cell"):
            read_design(str(tmp_path / "d.aux"))

    def test_bad_node_line(self, tmp_path):
        (tmp_path / "d.nodes").write_text("UCLA nodes 1.0\njusttwo 1\n")
        (tmp_path / "d.nets").write_text("UCLA nets 1.0\n")
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\n")
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl\n")
        with pytest.raises(BookshelfError):
            read_design(str(tmp_path / "d.aux"))

    def test_degree_mismatch(self, tmp_path):
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\na 1 1\nb 1 1\n")
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNetDegree : 3 n0\n  a B : 0 0\n  b B : 0 0\n"
            "NetDegree : 2 n1\n  a B : 0 0\n  b B : 0 0\n")
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\na 0 0 : N\nb 1 1 : N\n")
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl\n")
        with pytest.raises(BookshelfError, match="declared"):
            read_design(str(tmp_path / "d.aux"))

    def test_nonpositive_cell_size(self, tmp_path):
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\na 0 1\nb -2 1\nc 1 1\n")
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNetDegree : 3 n0\n"
            "  a B : 0 0\n  b B : 0 0\n  c B : 0 0\n")
        (tmp_path / "d.pl").write_text(
            "UCLA pl 1.0\na 0 0 : N\nb 2 0 : N\nc 4 1 : N\n")
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl\n")
        with pytest.raises(BookshelfError,
                           match=r"d\.aux: cell sizes must be positive"):
            read_design(str(tmp_path / "d.aux"))


class TestFixedHandling:
    def test_terminal_marker_read(self, tmp_path):
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\na 1 1\nt 2 2 terminal\n")
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNetDegree : 2 n0\n  a B : 0 0\n  t B : 0 0\n")
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\na 0 0 : N\nt 5 5 : N\n")
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl\n")
        d = read_design(str(tmp_path / "d.aux"))
        assert d.cell_fixed[1]
        assert not d.cell_fixed[0]

    def test_fixed_suffix_in_pl(self, tmp_path):
        (tmp_path / "d.nodes").write_text("UCLA nodes 1.0\na 1 1\n")
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNetDegree : 1 n0\n  a B : 0 0\n")
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\na 3 4 : N /FIXED\n")
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl\n")
        d = read_design(str(tmp_path / "d.aux"))
        assert d.cell_fixed[0]
