from votelace import kernels


def pytest_report_header(config):
    return f"votelace kernel backend: {kernels.active_backend()}"
