import toeplitz_unitary


def test_all_names_resolve():
    missing = [name for name in toeplitz_unitary.__all__
               if not hasattr(toeplitz_unitary, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(toeplitz_unitary.__all__)) == len(toeplitz_unitary.__all__)
