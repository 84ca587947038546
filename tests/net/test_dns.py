"""Tests for repro.net.dns."""

from repro.net.dns import DnsZone, ProviderInfra

SQUARESPACE = ProviderInfra(
    name="Squarespace",
    infra_domains=("ext-cust.squarespace.com",),
    ip_networks=("198.185.159.0/24",),
)
CARBONMADE = ProviderInfra(
    name="Carbonmade",
    apex_domains=("carbonmade.com",),
    ip_networks=("203.0.113.0/28",),
)


class TestProviderInfra:
    def test_owns_subdomain(self):
        assert CARBONMADE.owns_subdomain("jane.carbonmade.com")
        assert not CARBONMADE.owns_subdomain("carbonmade.com")
        assert not CARBONMADE.owns_subdomain("carbonmade.com.evil.com")

    def test_owns_host(self):
        assert SQUARESPACE.owns_host("ext-cust.squarespace.com")
        assert SQUARESPACE.owns_host("a.ext-cust.squarespace.com")
        assert not SQUARESPACE.owns_host("squarespace.com.evil.net")

    def test_owns_address(self):
        assert SQUARESPACE.owns_address("198.185.159.145")
        assert not SQUARESPACE.owns_address("10.0.0.1")
        assert not SQUARESPACE.owns_address("not-an-ip")


class TestDnsZone:
    def test_a_record_resolution(self):
        zone = DnsZone()
        zone.add_a("example.com", "192.0.2.1")
        resolution = zone.resolve("example.com")
        assert resolution.address == "192.0.2.1"
        assert resolution.cname_chain == ()

    def test_cname_chain_followed(self):
        zone = DnsZone()
        zone.add_cname("art.example.com", "proxy.host.net")
        zone.add_cname("proxy.host.net", "ext-cust.squarespace.com")
        zone.add_a("ext-cust.squarespace.com", "198.185.159.145")
        resolution = zone.resolve("art.example.com")
        assert resolution.cname_chain[-1] == "ext-cust.squarespace.com"
        assert resolution.address == "198.185.159.145"

    def test_unresolvable(self):
        assert DnsZone().resolve("nope.com").address is None

    def test_cname_loop_bounded(self):
        zone = DnsZone()
        zone.add_cname("a.com", "b.com")
        zone.add_cname("b.com", "a.com")
        resolution = zone.resolve("a.com")
        assert resolution.address is None
        assert len(resolution.cname_chain) == DnsZone.MAX_CHAIN

    def test_invalid_a_record_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            DnsZone().add_a("x.com", "999.1.1.1")

    def test_remove(self):
        zone = DnsZone()
        zone.add_a("x.com", "192.0.2.1")
        zone.remove("x.com")
        assert zone.resolve("x.com").address is None


class TestAttribution:
    PROVIDERS = [SQUARESPACE, CARBONMADE]

    def test_subdomain_attribution(self):
        zone = DnsZone()
        assert zone.attribute("jane.carbonmade.com", self.PROVIDERS) == "Carbonmade"

    def test_cname_attribution(self):
        zone = DnsZone()
        zone.add_cname("www.artist.com", "ext-cust.squarespace.com")
        assert zone.attribute("www.artist.com", self.PROVIDERS) == "Squarespace"

    def test_a_record_attribution(self):
        zone = DnsZone()
        zone.add_a("artist.com", "198.185.159.7")
        assert zone.attribute("artist.com", self.PROVIDERS) == "Squarespace"

    def test_unattributed(self):
        zone = DnsZone()
        zone.add_a("self-hosted.net", "192.0.2.200")
        assert zone.attribute("self-hosted.net", self.PROVIDERS) is None

    def test_subdomain_beats_dns(self):
        zone = DnsZone()
        zone.add_a("jane.carbonmade.com", "198.185.159.9")
        assert zone.attribute("jane.carbonmade.com", self.PROVIDERS) == "Carbonmade"
