"""Reporting layer: regenerates the paper's tables (I-III) and figures
(1-7) from library state, plus JSON/CSV export."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bundle": ("generate_report",),
        "tables": (
            "format_table",
            "table1_rows",
            "table2_rows",
            "table3_rows",
            "render_table1",
            "render_table2",
            "render_table3",
            "TABLE1_HEADER",
            "TABLE3_HEADER",
        ),
        "figures": (
            "bar_chart",
            "multi_series_chart",
            "fig1_series",
            "fig7_series",
            "render_fig1",
            "render_fig2",
            "render_fig3",
            "render_fig4",
            "render_fig5",
            "render_fig6",
            "render_fig7",
            "render_structure",
        ),
        "export": (
            "signature_to_dict",
            "signature_from_dict",
            "taxonomy_to_json",
            "survey_to_json",
            "rows_to_csv",
        ),
    },
)
