import pytest

from bfk.claims import CAMPAIGNS, CLAIMS, claim


def claims_for(campaign):
    return [c for c in CLAIMS if c.campaign == campaign]


def test_registry_has_unique_kebab_case_ids():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids)) == 32
    for cid in ids:
        assert cid == cid.lower()
        assert all(ch.isalnum() or ch == "-" for ch in cid)


def test_every_claim_belongs_to_a_known_campaign():
    for c in CLAIMS:
        assert c.campaign in CAMPAIGNS
        assert c.statement.strip()
        assert c.scope.strip()


def test_campaign_partition_covers_registry():
    gathered = []
    for name in CAMPAIGNS:
        batch = claims_for(name)
        assert batch
        assert all(c.campaign == name for c in batch)
        gathered.extend(batch)
    assert sorted(c.id for c in gathered) == sorted(c.id for c in CLAIMS)


def test_expected_campaign_sizes():
    sizes = {name: len(claims_for(name)) for name in CAMPAIGNS}
    assert sizes == {"induction": 5, "exact": 3, "main": 11,
                     "probe": 2, "appendix": 11}


def test_lookup_round_trip_and_errors():
    first = CLAIMS[0]
    assert claim(first.id) is first
    with pytest.raises(KeyError):
        claim("no-such-claim")
