"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

DOC = "<shop><item><name>x</name><cost>5</cost></item><secret>k</secret></shop>"
KEY = "00112233445566778899aabbccddeeff"

#: The verbs that talk to a running station, with the arguments each
#: needs after its ``HOST:PORT`` address.
CLIENT_VERBS = {
    "stats": [],
    "top": ["--once"],
    "remote-view": ["hospital"],
    "update": ["hospital", "--kind", "update-text", "--path", "0", "--text", "x"],
}


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC)
    return str(path)


class TestInspectEncode:
    def test_inspect(self, xml_file, capsys):
        assert main(["inspect", xml_file]) == 0
        out = capsys.readouterr().out
        assert "elements:      5" in out
        assert "TCSBR" in out

    def test_encode_decode_round_trip(self, xml_file, tmp_path, capsys):
        encoded = tmp_path / "doc.xskp"
        assert main(["encode", xml_file, str(encoded)]) == 0
        assert encoded.stat().st_size > 0
        assert main(["decode", str(encoded)]) == 0
        out = capsys.readouterr().out
        # The decoded pretty print contains the original data.
        assert "<name>x</name>" in out
        assert "<secret>k</secret>" in out


class TestProtectView:
    def protect(self, xml_file, tmp_path, scheme="ECB-MHT", capsys=None):
        store = tmp_path / "doc.store"
        assert (
            main(["protect", xml_file, str(store), "--scheme", scheme,
                  "--key", KEY]) == 0
        )
        if capsys is not None:
            capsys.readouterr()  # drain the protect command's output
        return store

    def test_store_header(self, xml_file, tmp_path):
        store = self.protect(xml_file, tmp_path)
        header = json.loads(store.read_bytes().split(b"\n", 1)[0])
        assert header["magic"] == "XPROT1"
        assert header["scheme"] == "ECB-MHT"

    def test_view_with_rules(self, xml_file, tmp_path, capsys):
        store = self.protect(xml_file, tmp_path, capsys=capsys)
        assert (
            main(
                [
                    "view", str(store), "--key", KEY,
                    "--rule=+://item", "--rule=-://secret",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "<name>x</name>" in out
        assert "secret" not in out

    def test_view_with_query(self, xml_file, tmp_path, capsys):
        store = self.protect(xml_file, tmp_path, capsys=capsys)
        assert (
            main(
                [
                    "view", str(store), "--key", KEY,
                    "--rule", "+://shop",
                    "--query", "//item[cost > 10]",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip()
        assert out == ""  # no item matches: empty view

    def test_view_costs_report(self, xml_file, tmp_path, capsys):
        store = self.protect(xml_file, tmp_path)
        assert (
            main(
                ["view", str(store), "--key", KEY, "--rule", "+://item",
                 "--costs"]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "simulated" in err

    def test_view_brute_force_same_result(self, xml_file, tmp_path, capsys):
        store = self.protect(xml_file, tmp_path, capsys=capsys)
        main(["view", str(store), "--key", KEY, "--rule", "+://item"])
        fast = capsys.readouterr().out
        main(["view", str(store), "--key", KEY, "--rule", "+://item",
              "--brute-force"])
        slow = capsys.readouterr().out
        assert fast == slow

    def test_wrong_key_detected(self, xml_file, tmp_path):
        from repro.crypto.integrity import IntegrityError

        store = self.protect(xml_file, tmp_path)
        bad_key = "ff" * 16
        with pytest.raises((IntegrityError, Exception)):
            main(["view", str(store), "--key", bad_key, "--rule", "+://item"])

    def test_bad_rule_syntax(self, xml_file, tmp_path):
        store = self.protect(xml_file, tmp_path)
        with pytest.raises(SystemExit):
            main(["view", str(store), "--key", KEY, "--rule", "oops"])

    def test_bad_key_length(self, xml_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["protect", xml_file, str(tmp_path / "s"), "--key", "abcd"])

    @pytest.mark.parametrize("scheme", ["ECB", "CBC-SHA", "CBC-SHAC", "ECB-MHT"])
    def test_all_schemes_round_trip(self, xml_file, tmp_path, capsys, scheme):
        store = self.protect(xml_file, tmp_path, scheme=scheme, capsys=capsys)
        assert (
            main(["view", str(store), "--key", KEY, "--rule", "+://shop"]) == 0
        )
        out = capsys.readouterr().out
        assert "<cost>5</cost>" in out


class TestOperatorErrorPaths:
    """`repro store` / `repro stats` / `repro top` against broken targets
    must exit with a one-line diagnostic, never a raw traceback."""

    def test_store_inspect_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["store", "inspect", str(tmp_path / "nowhere")])
        assert "not a store directory" in str(info.value)

    def test_store_inspect_locked_directory(self, tmp_path):
        from repro.store import LogStore

        directory = str(tmp_path / "held")
        holder = LogStore(directory)
        try:
            with pytest.raises(SystemExit) as info:
                main(["store", "inspect", directory])
        finally:
            holder.close()
        assert "cannot open store" in str(info.value)

    def test_serve_store_regular_file(self, tmp_path):
        path = tmp_path / "doc.store"
        path.write_text("a file, not a chunk-store directory")
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", "--store", str(path)])
        assert "not a store directory" in str(info.value)

    def test_serve_store_locked_directory(self, tmp_path):
        from repro.store import LogStore

        directory = str(tmp_path / "held")
        holder = LogStore(directory)
        try:
            with pytest.raises(SystemExit) as info:
                main(["serve", "--port", "0", "--store", directory])
        finally:
            holder.close()
        assert "cannot open store" in str(info.value)

    @pytest.mark.parametrize("verb", sorted(CLIENT_VERBS))
    def test_unreachable_server(self, verb):
        with pytest.raises(SystemExit) as info:
            main(
                [verb, "127.0.0.1:1", *CLIENT_VERBS[verb], "--connect-retry", "0"]
            )
        assert "cannot reach station at 127.0.0.1:1 -- " in str(info.value)

    @pytest.mark.parametrize("verb", sorted(CLIENT_VERBS))
    def test_malformed_address_is_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as info:
            main([verb, "localhost", *CLIENT_VERBS[verb]])
        assert info.value.code == 2
        assert "address must look like HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["localhost:99999", "localhost:0"])
    @pytest.mark.parametrize("verb", sorted(CLIENT_VERBS))
    def test_out_of_range_address_is_usage_error(self, verb, address, capsys):
        # The resolver would wrap 99999 to port 34463: refuse, never dial.
        with pytest.raises(SystemExit) as info:
            main([verb, address, *CLIENT_VERBS[verb]])
        assert info.value.code == 2
        assert "address must look like HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "99999"],
            ["serve", "--port", "-1"],
            ["serve", "--metrics-port", "65536"],
            ["cluster", "--port", "99999"],
            ["cluster", "--metrics-port", "70000"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_listen_port_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "port must be 0-65535" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, extra",
        [("--queue-depth", []), ("--chunk-size", []), ("--cache-mb", ["--store"])],
    )
    def test_serve_non_positive_size_is_usage_error(
        self, flag, extra, tmp_path, capsys
    ):
        store = [str(tmp_path / "store")] if extra else []
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", flag, "0", *extra, *store])
        assert info.value.code == 2
        assert "%s: must be at least 1, got 0" % flag in capsys.readouterr().err
